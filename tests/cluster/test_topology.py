"""Tests for the Clos topology builder and routing."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology, PathChoice
from repro.netsim.flows import Flow
from repro.netsim.network import FlowNetwork
from repro.netsim.routing import FiveTuple
from repro.netsim.units import GBPS


@pytest.fixture
def topo():
    return ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=1)


FT = FiveTuple(src_ip="10.0.0.0", dst_ip="10.0.0.5", src_port=50123, dst_port=4791)


def test_link_count(topo):
    spec = TESTBED_16_NODES
    host_links = spec.num_nodes * spec.nics_per_node * 2 * 2  # up+down per port
    nvlinks = spec.num_nodes
    fabric = spec.rails * 2 * spec.spines_per_rail * spec.uplink_ports_per_spine * 2
    assert len(topo.network.links) == host_links + nvlinks + fabric


def test_host_link_capacity(topo):
    link = topo.network.link(topo.host_up(0, 0, 0))
    assert link.capacity == pytest.approx(200 * GBPS)


def test_rail_of(topo):
    assert topo.rail_of(0) == 0
    assert topo.rail_of(5) == 1
    assert topo.rail_of(7) == 3


def test_resolve_path_structure(topo):
    choice = PathChoice(src_side=0, spine=3, up_port=1, dst_side=1, down_port=2)
    path = topo.resolve_path(0, 2, 5, 2, choice)
    assert path == [
        ("nvl", 0),
        ("hup", 0, 2, 0),
        ("lup", 2, 0, 3, 1),
        ("sdn", 2, 3, 1, 2),
        ("hdn", 5, 2, 1),
        ("nvl", 5),
    ]


def test_cross_rail_path_rejected(topo):
    choice = PathChoice(0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        topo.resolve_path(0, 0, 1, 1, choice)


def test_ecmp_path_links_exist(topo):
    choice = topo.ecmp_choice(0, FT, src_side=0)
    path = topo.resolve_path(0, 0, 5, 0, choice)
    for link_id in path:
        assert link_id in topo.network.links


def test_ecmp_deterministic(topo):
    c1 = topo.ecmp_choice(0, FT, src_side=0)
    c2 = topo.ecmp_choice(0, FT, src_side=0)
    assert c1 == c2


def test_ecmp_pinned_src_side(topo):
    choice = topo.ecmp_choice(0, FT, src_side=1)
    assert choice.src_side == 1


def test_ecmp_avoids_failed_uplink(topo):
    base = topo.ecmp_choice(0, FT, src_side=0)
    topo.network.fail_link(topo.leaf_up(0, base.src_side, base.spine, base.up_port))
    rerouted = topo.ecmp_choice(0, FT, src_side=base.src_side)
    assert (rerouted.spine, rerouted.up_port) != (base.spine, base.up_port)


def test_ecmp_raises_when_all_uplinks_dead(topo):
    spec = TESTBED_16_NODES
    for spine in range(spec.spines_per_rail):
        for k in range(spec.uplink_ports_per_spine):
            topo.network.fail_link(topo.leaf_up(0, 0, spine, k))
    with pytest.raises(RuntimeError):
        topo.ecmp_choice(0, FT, src_side=0)


def test_set_port_scale_is_idempotent(topo):
    topo.set_port_scale(2, 3, 0, 0.5)
    topo.set_port_scale(2, 3, 0, 0.5)
    assert topo.network.link(topo.host_up(2, 3, 0)).capacity == pytest.approx(100 * GBPS)
    assert topo.network.link(topo.host_down(2, 3, 0)).capacity == pytest.approx(100 * GBPS)


def test_set_port_scale_reaches_the_solver(topo):
    link_id = topo.host_up(2, 3, 0)
    topo.network.add_flow(Flow(flow_id="f", path=[link_id], size=GBPS))
    topo.set_port_scale(2, 3, 0, 0.25)
    assert topo.network.compute_rates()["f"] == pytest.approx(50 * GBPS)


def test_set_port_scale_rejects_nonpositive(topo):
    with pytest.raises(ValueError):
        topo.set_port_scale(0, 0, 0, 0.0)


def test_disable_spine(topo):
    topo.disable_spine(0, 3)
    assert 3 not in topo.enabled_spines(0)
    assert not topo.network.link(topo.leaf_up(0, 0, 3, 0)).is_up
    assert not topo.network.link(topo.spine_down(0, 3, 1, 0)).is_up


def test_leaf_uplinks_enumeration(topo):
    spec = TESTBED_16_NODES
    uplinks = topo.leaf_uplinks(1, 0)
    assert len(uplinks) == spec.spines_per_rail * spec.uplink_ports_per_spine
    assert all(link[0] == "lup" and link[1] == 1 and link[2] == 0 for link in uplinks)


def test_ecmp_spreads_across_spines(topo):
    spines = set()
    for port in range(50000, 50100):
        ft = FiveTuple(src_ip="10.0.0.0", dst_ip="10.0.0.9", src_port=port, dst_port=4791)
        spines.add(topo.ecmp_choice(0, ft, src_side=0).spine)
    # 100 flows should reach most of the 8 spines.
    assert len(spines) >= 6
