"""Tests for the C4P selector and the dynamic load balancer."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.algorithms import OpType
from repro.collective.context import CollectiveContext
from repro.collective.placement import contiguous_ranks
from repro.core.c4p.load_balance import DynamicLoadBalancer
from repro.core.c4p.master import C4PMaster
from repro.core.c4p.selector import C4PSelector
from repro.netsim.flows import FlowState
from repro.netsim.network import FlowNetwork
from repro.netsim.units import GIB


def build(dynamic=True, seed=5):
    net = FlowNetwork()
    topo = ClusterTopology(TESTBED_16_NODES, net, ecmp_seed=seed)
    master = C4PMaster(topo, search_ports=False)
    selector = C4PSelector(master, dynamic=dynamic)
    ctx = CollectiveContext(topo, selector=selector)
    return net, topo, master, ctx


def test_c4p_reaches_nvlink_cap():
    net, _topo, _master, ctx = build()
    comm = ctx.communicator(contiguous_ranks(range(8), 8))
    handle = ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    assert handle.busbw_per_nic_gbps == pytest.approx(362.0, rel=0.01)


def test_dynamic_reroute_on_failure():
    net, topo, master, ctx = build(dynamic=True)
    comm = ctx.communicator(contiguous_ranks(range(8), 8))
    handle = ctx.run_op(comm, OpType.ALLREDUCE, 100 * GIB)

    def kill():
        # Kill every uplink currently used on rail 0 side 0 spine 0.
        net.fail_link(topo.leaf_up(0, 0, 0, 0))

    net.schedule(0.05, kill)
    net.run()
    assert handle.done
    assert all(flow.state is not FlowState.STALLED for flow in net.flows.values())


def test_static_mode_falls_back_to_ecmp():
    net, topo, master, ctx = build(dynamic=False)
    comm = ctx.communicator(contiguous_ranks(range(8), 8))
    handle = ctx.run_op(comm, OpType.ALLREDUCE, 100 * GIB)
    net.schedule(0.05, lambda: net.fail_link(topo.leaf_up(0, 0, 0, 0)))
    net.run()
    assert handle.done  # fabric ECMP rerouted the displaced flows


def test_failure_notifies_master_in_both_modes():
    for dynamic in (True, False):
        net, topo, master, ctx = build(dynamic=dynamic)
        comm = ctx.communicator(contiguous_ranks(range(4), 8))
        ctx.run_op(comm, OpType.ALLREDUCE, 100 * GIB)
        link = topo.leaf_up(0, 0, 0, 0)
        net.schedule(0.01, lambda l=link: net.fail_link(l))
        net.run()
        assert link in master.registry.dead_links


def test_load_balancer_requires_context():
    with pytest.raises(ValueError):
        DynamicLoadBalancer([])


def test_load_balancer_shifts_weights(monkeypatch):
    monkeypatch.setattr(DynamicLoadBalancer, "INTERVAL", 0.005)
    net, topo, _master, ctx = build()
    # Degrade one physical port so its QP measures a lower rate.
    topo.set_port_scale(0, 0, 0, 0.25)
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    balancer = DynamicLoadBalancer([ctx])
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run(until=1.0)
    balancer.start()
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    # The balancer timer keeps the loop alive, so run with a bound.
    net.run(until=2.0)
    balancer.stop()
    degraded_conns = [
        c
        for c in ctx.connections
        if (c.request.src_node, c.request.src_nic, c.request.dst_node, c.request.dst_nic)
        == (0, 0, 1, 0)
    ]
    assert degraded_conns
    conn = degraded_conns[0]
    weights = {a.choice.src_side: a.weight for a in conn.allocations}
    assert weights[1] > weights[0]  # healthy side carries more load


def test_balancer_hysteresis_leaves_balanced_alone():
    net, _topo, _master, ctx = build()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    handle = ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    balancer = DynamicLoadBalancer([ctx])
    for conn in ctx.connections:
        assert not balancer.rebalance_connection(conn)


def test_balancer_weight_clamps():
    net, topo, _master, ctx = build()
    topo.set_port_scale(0, 0, 0, 0.01)
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    balancer = DynamicLoadBalancer([ctx])
    for conn in ctx.connections:
        balancer.rebalance_connection(conn)
        for alloc in conn.allocations:
            assert 0.1 <= alloc.weight <= 4.0
