"""Tests for path probing and source-port search."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology, PathChoice
from repro.core.c4p import probing
from repro.core.c4p.probing import PathProber
from repro.netsim.network import FlowNetwork
from repro.netsim.routing import FiveTuple


@pytest.fixture
def prober():
    topo = ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=4)
    return PathProber(topo)


def test_find_source_port_steers_both_stages(prober):
    spec = TESTBED_16_NODES
    choice = PathChoice(src_side=0, spine=5, up_port=2, dst_side=0, down_port=3)
    port = prober.find_source_port("10.0.0.1", "10.0.0.2", rail=1, choice=choice)
    hasher = prober.topology.ecmp
    ft = FiveTuple(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=port, dst_port=4791)
    up_fanout = spec.spines_per_rail * spec.uplink_ports_per_spine
    up = hasher.choose(ft, up_fanout, stage="up:1:0")
    assert divmod(up, spec.uplink_ports_per_spine) == (5, 2)
    down = hasher.choose(ft, 2 * spec.uplink_ports_per_spine, stage="down:1:5")
    assert divmod(down, spec.uplink_ports_per_spine) == (0, 3)


def test_find_source_port_tiny_range_fails(prober, monkeypatch):
    monkeypatch.setattr(probing, "SOURCE_PORTS", range(50000, 50002))
    choice = PathChoice(0, 0, 0, 0, 0)
    with pytest.raises(LookupError):
        prober.find_source_port("a", "b", 0, choice)


def test_probe_route_healthy(prober):
    choice = PathChoice(0, 0, 0, 0, 0)
    assert prober.probe_route(0, choice)


def test_probe_route_detects_dead_uplink(prober):
    choice = PathChoice(0, 3, 1, 0, 0)
    prober.topology.network.fail_link(prober.topology.leaf_up(0, 0, 3, 1))
    assert not prober.probe_route(0, choice)


def test_probe_route_detects_dead_downlink(prober):
    choice = PathChoice(0, 3, 0, 1, 2)
    prober.topology.network.fail_link(prober.topology.spine_down(0, 3, 1, 2))
    assert not prober.probe_route(0, choice)


def test_full_mesh_counts(prober):
    spec = TESTBED_16_NODES
    results = prober.full_mesh(0)
    expected = 2 * spec.spines_per_rail * spec.uplink_ports_per_spine * 2 * spec.uplink_ports_per_spine
    assert len(results) == expected
    assert all(r.healthy for r in results)


def test_full_mesh_flags_failed_links(prober):
    prober.topology.network.fail_link(prober.topology.leaf_up(0, 0, 2, 0))
    results = prober.full_mesh(0)
    unhealthy = [r for r in results if not r.healthy]
    assert unhealthy
    assert all(
        r.choice.src_side == 0 and r.choice.spine == 2 and r.choice.up_port == 0
        for r in unhealthy
    )


def test_full_mesh_with_port_search(prober):
    results = prober.full_mesh(0, find_ports=True)
    healthy = [r for r in results if r.healthy]
    assert all(49152 <= r.src_port < 65536 for r in healthy)


def test_reprobe_reports_per_link_state(prober):
    topo = prober.topology
    dead = topo.leaf_up(0, 0, 2, 0)
    alive_up = topo.leaf_up(0, 1, 3, 1)
    alive_down = topo.spine_down(0, 4, 0, 2)
    topo.network.fail_link(dead)
    verdict = prober.reprobe([dead, alive_up, alive_down])
    assert verdict == {dead: False, alive_up: True, alive_down: True}
    # Restoring the link flips the next probe back to healthy.
    topo.network.restore_link(dead)
    assert prober.reprobe([dead]) == {dead: True}


def test_reprobe_empty_is_noop(prober):
    assert prober.reprobe([]) == {}


def linear_port_scan(topo, src_ip, dst_ip, rail, choice, port_range=range(49152, 65536)):
    """The one-tuple-per-port search, hashing every field for every port."""
    spec = topo.spec
    up_fanout = spec.spines_per_rail * spec.uplink_ports_per_spine
    down_fanout = 2 * spec.uplink_ports_per_spine
    wanted_up = choice.spine * spec.uplink_ports_per_spine + choice.up_port
    wanted_down = choice.dst_side * spec.uplink_ports_per_spine + choice.down_port
    for port in port_range:
        ft = FiveTuple(src_ip=src_ip, dst_ip=dst_ip, src_port=port, dst_port=4791)
        if topo.ecmp.choose(ft, up_fanout, stage=f"up:{rail}:{choice.src_side}") != wanted_up:
            continue
        if topo.ecmp.choose(ft, down_fanout, stage=f"down:{rail}:{choice.spine}") == wanted_down:
            return port
    raise LookupError(port_range)


@pytest.mark.parametrize("ecmp_seed", [0, 4])
def test_find_source_port_matches_linear_scan_for_every_route(ecmp_seed):
    topo = ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=ecmp_seed)
    prober = PathProber(topo)
    rail = 3
    src_ip = topo.node(2).nics[rail].ip_address
    dst_ip = topo.node(9).nics[rail].ip_address
    choices = [result.choice for result in prober.full_mesh(rail)]
    assert len(choices) == len(set(choices)) == 512
    for choice in choices:
        assert prober.find_source_port(src_ip, dst_ip, rail, choice) == linear_port_scan(
            topo, src_ip, dst_ip, rail, choice
        )
