"""Tests for cluster specifications."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES, ClusterSpec, pod_spec
from repro.netsim.units import GBPS


def leaf_ports(spec):
    """(host-facing, spine-facing) ports of one leaf switch."""
    return (
        spec.num_nodes * spec.nics_per_rail,
        spec.spines_per_rail * spec.uplink_ports_per_spine,
    )


def test_testbed_matches_paper_table2():
    spec = TESTBED_16_NODES
    assert spec.num_nodes == 16
    assert spec.num_nodes * spec.gpus_per_node == 128
    assert spec.gpus_per_node == 8
    assert spec.nics_per_node == 8
    assert spec.port_gbps == 200.0
    assert spec.oversubscription == 1.0
    # 8 leaf switches = 4 rail pairs.
    assert spec.rails * 2 == 8


def test_testbed_is_one_to_one():
    downlinks, uplinks = leaf_ports(TESTBED_16_NODES)
    assert uplinks == downlinks


def test_bonded_capacity_is_400g():
    # Two bonded ports per logical NIC.
    assert 2 * TESTBED_16_NODES.port_capacity == pytest.approx(400 * GBPS)


def test_nvlink_cap_matches_peak_busbw():
    # Per-channel ceiling should be the paper's 362 Gbps.
    spec = TESTBED_16_NODES
    per_channel = spec.nvlink_capacity / (2 * spec.nics_per_node)
    assert per_channel == pytest.approx(362 * GBPS)


def test_rails_must_divide_nics():
    with pytest.raises(ValueError):
        ClusterSpec(num_nodes=2, nics_per_node=8, rails=3)


def test_oversubscription_below_one_rejected():
    with pytest.raises(ValueError):
        ClusterSpec(num_nodes=2, oversubscription=0.5)


def test_nonpositive_nodes_rejected():
    with pytest.raises(ValueError):
        ClusterSpec(num_nodes=0)


def test_with_oversubscription_scales_uplinks():
    spec = ClusterSpec(num_nodes=TESTBED_16_NODES.num_nodes, oversubscription=2.0)
    assert spec.uplink_capacity == pytest.approx(TESTBED_16_NODES.uplink_capacity / 2)
    assert spec.num_nodes == TESTBED_16_NODES.num_nodes


def test_pod_spec_is_one_to_one():
    for nodes in (2, 8, 32, 64):
        downlinks, uplinks = leaf_ports(pod_spec(nodes))
        assert uplinks >= downlinks


def test_pod_spec_caps_at_512_gpus():
    with pytest.raises(ValueError):
        pod_spec(65)


def test_nics_per_rail():
    assert TESTBED_16_NODES.nics_per_rail == 2
