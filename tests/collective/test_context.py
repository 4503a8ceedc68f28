"""Tests for the collective engine."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.algorithms import OpType
from repro.collective.communicator import RankLocation
from repro.collective.context import CollectiveContext, RepeatedOp
from repro.collective.monitoring import RecordingSink
from repro.collective.placement import contiguous_ranks
from repro.netsim.network import FlowNetwork
from repro.netsim.units import GIB


def make_ctx(seed=1, **kwargs):
    net = FlowNetwork()
    topo = ClusterTopology(TESTBED_16_NODES, net, ecmp_seed=seed)
    sink = RecordingSink()
    ctx = CollectiveContext(topo, sink=sink, **kwargs)
    return net, topo, ctx, sink


def test_allreduce_completes():
    net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(4), 8))
    handle = ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    assert handle.done
    assert handle.duration > 0
    assert handle.busbw_per_nic_gbps <= 400.0


def test_busbw_capped_by_nvlink():
    net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(4), 8))
    handle = ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    assert handle.busbw_per_nic_gbps <= 362.0 + 1e-6


def test_zero_size_rejected():
    _net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    with pytest.raises(ValueError):
        ctx.run_op(comm, OpType.ALLREDUCE, 0.0)


def test_entry_offsets_shift_start():
    net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    offsets = [0.0] * comm.size
    offsets[3] = 1.5
    handle = ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB, entry_offsets=offsets)
    net.run()
    assert handle.start_time == pytest.approx(1.5)


def test_wrong_offsets_length_rejected():
    _net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    with pytest.raises(ValueError):
        ctx.run_op(comm, OpType.ALLREDUCE, 1.0, entry_offsets=[0.0])


def test_single_node_uses_nvlink_only():
    net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks([0], 8))
    handle = ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    assert handle.done
    assert len(net.completed_flows) == 0  # no network flows


def test_absent_ranks_skip_launch_records():
    net, _topo, ctx, sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB, absent_ranks=[5])
    net.run()
    launched = {r.rank for r in sink.launches}
    assert 5 not in launched
    assert len(launched) == comm.size - 1


def test_op_records_one_per_rank():
    net, _topo, ctx, sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    assert len(sink.ops) == comm.size
    assert {r.rank for r in sink.ops} == set(range(comm.size))


def test_message_records_per_qp():
    net, _topo, ctx, sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    # 2 node-edges x 8 channels x 2 QPs x MESSAGES_PER_OP messages.
    assert len(sink.messages) == 2 * 8 * 2 * CollectiveContext.MESSAGES_PER_OP
    for record in sink.messages:
        assert record.duration > 0
        assert record.size_bits > 0


def test_connections_are_cached():
    net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    first = len(ctx.connections)
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    assert len(ctx.connections) == first


def test_send_recv():
    net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    handle = ctx.run_send_recv(RankLocation(0, 0), RankLocation(1, 0), 1 * GIB, comm=comm)
    net.run()
    assert handle.done
    assert handle.op_type is OpType.SEND_RECV


def test_alltoall_completes():
    net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(4), 8))
    handle = ctx.run_op(comm, OpType.ALLTOALL, 1 * GIB)
    net.run()
    assert handle.done


def test_work_stealing_improves_unbalanced_connection():
    # Degrade one physical port; with stealing the healthy port picks up
    # the slack, so the op is faster than the no-stealing run.
    def run(stealing):
        net = FlowNetwork()
        topo = ClusterTopology(TESTBED_16_NODES, net, ecmp_seed=1)
        topo.set_port_scale(0, 0, 0, 0.1)
        ctx = CollectiveContext(topo, qp_work_stealing=stealing)
        comm = ctx.communicator(contiguous_ranks(range(2), 8), comm_id=f"ws{stealing}")
        handle = ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
        net.run()
        return handle.duration

    assert run(True) < run(False)


def test_repeated_op_collects_series():
    net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    runner = RepeatedOp(ctx, comm, OpType.ALLREDUCE, 1 * GIB, max_ops=3, warmup_ops=1)
    runner.start()
    net.run()
    assert len(runner.handles) == 3
    assert runner.mean_busbw_gbps > 0


def test_repeated_op_requires_bound():
    _net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    with pytest.raises(ValueError):
        RepeatedOp(ctx, comm, OpType.ALLREDUCE, 1 * GIB)


def test_repeated_op_stop_time():
    net, _topo, ctx, _sink = make_ctx()
    comm = ctx.communicator(contiguous_ranks(range(2), 8))
    runner = RepeatedOp(ctx, comm, OpType.ALLREDUCE, 1 * GIB, stop_time=0.5)
    runner.start()
    net.run()
    assert net.now >= 0.5
    assert runner.handles


def test_two_jobs_share_fabric():
    net = FlowNetwork()
    topo = ClusterTopology(TESTBED_16_NODES, net, ecmp_seed=3)
    ctx1 = CollectiveContext(topo, job_id="a")
    ctx2 = CollectiveContext(topo, job_id="b")
    c1 = ctx1.communicator(contiguous_ranks([0, 1], 8), comm_id="a")
    c2 = ctx2.communicator(contiguous_ranks([2, 3], 8), comm_id="b")
    h1 = ctx1.run_op(c1, OpType.ALLREDUCE, 1 * GIB)
    h2 = ctx2.run_op(c2, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    assert h1.done and h2.done


def test_close_releases_c4p_reservations():
    from repro.core.c4p.master import C4PMaster
    from repro.core.c4p.selector import C4PSelector

    net = FlowNetwork()
    topo = ClusterTopology(TESTBED_16_NODES, net, ecmp_seed=3)
    master = C4PMaster(topo, search_ports=False)
    ctx = CollectiveContext(topo, selector=C4PSelector(master))
    comm = ctx.communicator(contiguous_ranks(range(4), 8))
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    assert any(v > 0 for v in master.registry.link_load.values())
    ctx.close()
    assert all(v == 0 for v in master.registry.link_load.values())
    assert ctx.connections == []
    ctx.close()  # idempotent
