"""Tests for the experiment-specific fabric specs and scenario knobs."""

import pytest

from repro.netsim.flows import Flow
from repro.netsim.units import GBPS
from repro.workloads.generator import build_cluster, fig10b_spec, fig12_spec


def test_fig12_spec_has_eight_uplinks_per_leaf():
    spec = fig12_spec()
    # "1 link error among the 8 uplinks": one fat pipe per spine.
    assert spec.spines_per_rail == 8
    assert spec.uplink_ports_per_spine == 1
    # 1:1 against the 32 x 200G downlinks.
    downlink = spec.num_nodes * spec.nics_per_rail * spec.port_capacity
    uplink = spec.spines_per_rail * spec.uplink_capacity
    assert uplink == pytest.approx(downlink)


def test_fig10b_spec_sits_at_saturation_boundary():
    spec = fig10b_spec()
    # With half the spines disabled, live capacity must be slightly
    # below the NVLink-capped demand (32 flows x ~181 Gbps per leaf).
    live_capacity = (spec.spines_per_rail // 2) * spec.uplink_capacity
    demand = spec.num_nodes * spec.nics_per_rail * spec.nvlink_busbw_gbps * GBPS / 2
    assert 0.9 < live_capacity / demand < 1.05


def test_disable_spines_per_rail_applies_before_probe():
    scenario = build_cluster(use_c4p=True, disable_spines_per_rail=4)
    for rail in range(scenario.topology.spec.rails):
        assert len(scenario.topology.enabled_spines(rail)) == 4
    # The master's catalog excludes the disabled spines' links.
    dead = scenario.master.registry.dead_links
    assert any(link[0] == "lup" and link[3] >= 4 for link in dead)


def test_congestion_excludes_nvlink():
    scenario = build_cluster(congestion=True)
    model = scenario.network.congestion
    assert model is not None
    fabric, nvlink = ("lup", 0, 0, 0, 0), ("nvl", 3)
    flows = [Flow("f", [fabric], GBPS), Flow("g", [nvlink], GBPS)]
    model.observe(flows, {"f": GBPS, "g": GBPS}, {fabric: GBPS, nvlink: GBPS}, dt=1.0)
    assert set(model.cnp_counts) == {"f"}


def test_no_congestion_by_default():
    assert build_cluster().network.congestion is None
