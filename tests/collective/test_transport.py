"""Tests for connections and QP load shares."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.selectors import EcmpPathSelector, PathRequest
from repro.collective.transport import Connection
from repro.netsim.flows import Flow
from repro.netsim.network import FlowNetwork


@pytest.fixture
def conn():
    topo = ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=0)
    selector = EcmpPathSelector(topo)
    request = PathRequest(
        comm_id="c", job_id="j", src_node=0, src_nic=0, dst_node=1, dst_nic=0, num_qps=2
    )
    allocations = selector.allocate(request)
    return Connection(
        request=request, allocations=allocations, src_ip="10.0.0.1", dst_ip="10.0.0.2"
    )


def test_key(conn):
    assert conn.key == (0, 0, 1, 0)


def test_equal_shares_initially(conn):
    for alloc in conn.allocations:
        assert conn.qp_share(alloc) == pytest.approx(0.5)


def test_set_qp_weight_changes_share(conn):
    conn.set_qp_weight(conn.allocations[0], 3.0)
    assert conn.qp_share(conn.allocations[0]) == pytest.approx(0.75)
    assert conn.total_weight == pytest.approx(4.0)


def test_set_qp_weight_updates_inflight_flows(conn):
    alloc = conn.allocations[0]
    flow = Flow(flow_id="f", path=list(alloc.path), size=1.0, metadata={"qp": alloc})
    conn.active_flows.append(flow)
    conn.set_qp_weight(alloc, 2.5)
    assert flow.weight == 2.5


def test_set_qp_weight_rejects_nonpositive(conn):
    with pytest.raises(ValueError):
        conn.set_qp_weight(conn.allocations[0], 0.0)


def test_observe_rate_ewma(conn):
    qp = conn.allocations[0].qp_num
    conn.observe_rate(qp, 100.0)
    assert conn.qp_rate_ewma[qp] == 100.0
    conn.observe_rate(qp, 200.0, alpha=0.5)
    assert conn.qp_rate_ewma[qp] == pytest.approx(150.0)


def test_observe_rate_ignores_nonpositive(conn):
    conn.observe_rate(conn.allocations[0].qp_num, 0.0)
    assert conn.qp_rate_ewma == {}


def test_prune_finished(conn):
    from repro.netsim.flows import FlowState

    alloc = conn.allocations[0]
    flow = Flow(flow_id="f", path=list(alloc.path), size=1.0, metadata={"qp": alloc})
    flow.state = FlowState.COMPLETED
    conn.active_flows.append(flow)
    conn.prune_finished()
    assert conn.active_flows == []
