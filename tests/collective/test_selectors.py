"""Tests for the ECMP baseline path selector."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.selectors import EcmpPathSelector, PathRequest
from repro.netsim.network import FlowNetwork


@pytest.fixture
def topo():
    return ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=2)


def request(src=0, dst=1, nic=0, qps=2, comm="c0"):
    return PathRequest(
        comm_id=comm,
        job_id="job",
        src_node=src,
        src_nic=nic,
        dst_node=dst,
        dst_nic=nic,
        num_qps=qps,
    )


def test_allocates_requested_qps(topo):
    selector = EcmpPathSelector(topo)
    allocs = selector.allocate(request(qps=3))
    assert len(allocs) == 3
    assert len({a.qp_num for a in allocs}) == 3


def test_one_qp_per_physical_port(topo):
    selector = EcmpPathSelector(topo)
    allocs = selector.allocate(request(qps=2))
    assert {a.choice.src_side for a in allocs} == {0, 1}


def test_paths_reference_real_links(topo):
    selector = EcmpPathSelector(topo)
    for alloc in selector.allocate(request()):
        for link_id in alloc.path:
            assert link_id in topo.network.links


def test_ephemeral_ports_deterministic(topo):
    s1 = EcmpPathSelector(topo, seed=5)
    s2 = EcmpPathSelector(topo, seed=5)
    p1 = [a.src_port for a in s1.allocate(request())]
    p2 = [a.src_port for a in s2.allocate(request())]
    assert p1 == p2


def test_ephemeral_ports_vary_by_connection(topo):
    selector = EcmpPathSelector(topo)
    a1 = selector.allocate(request(comm="c0"))
    a2 = selector.allocate(request(comm="c1"))
    assert [x.src_port for x in a1] != [x.src_port for x in a2]


def test_ports_in_ephemeral_range(topo):
    selector = EcmpPathSelector(topo)
    for alloc in selector.allocate(request(qps=8)):
        assert 49152 <= alloc.src_port < 65536


def test_five_tuple_uses_nic_ips(topo):
    selector = EcmpPathSelector(topo)
    alloc = selector.allocate(request(src=2, dst=7, nic=3))[0]
    assert alloc.five_tuple.src_ip == topo.node(2).nics[3].ip_address
    assert alloc.five_tuple.dst_ip == topo.node(7).nics[3].ip_address


def test_on_link_down_reroutes_flow(topo):
    from repro.netsim.flows import Flow

    selector = EcmpPathSelector(topo)
    req = request()
    alloc = selector.allocate(req)[0]
    flow = Flow(
        flow_id="f",
        path=list(alloc.path),
        size=1.0,
        metadata={"request": req, "qp": alloc},
    )
    dead = topo.leaf_up(0, alloc.choice.src_side, alloc.choice.spine, alloc.choice.up_port)
    topo.network.add_link("dummy", 1.0)  # ensure net has unrelated state
    link = topo.network.link(dead)
    link.fail()
    selector.on_link_down(link, [flow])
    assert dead not in flow.path
    assert alloc.path == list(flow.path)


def test_on_link_down_ignores_foreign_flows(topo):
    from repro.netsim.flows import Flow

    selector = EcmpPathSelector(topo)
    flow = Flow(flow_id="f", path=[topo.nvlink(0)], size=1.0)
    link = topo.network.link(topo.leaf_up(0, 0, 0, 0))
    link.fail()
    selector.on_link_down(link, [flow])  # must not raise
    assert flow.path == [topo.nvlink(0)]
