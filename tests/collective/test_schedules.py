"""Tests for the multi-phase communication schedules."""

import pytest

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import Communicator
from repro.collective.context import CollectiveContext
from repro.collective.placement import contiguous_ranks
from repro.collective.schedules import (
    halving_doubling_phases,
    hierarchical_allreduce_phases,
    pairwise_alltoall_phases,
    ring_phases,
    tree_phases,
)
from repro.netsim.units import GIB
from repro.workloads.generator import build_cluster


def comm_of(nodes, gpus=8):
    return Communicator(contiguous_ranks(range(nodes), gpus))


def total_bits(phases):
    return sum(t.bits_per_channel for phase in phases for t in phase)


def test_ring_is_single_phase():
    comm = comm_of(4)
    phases = ring_phases(comm, OpType.ALLREDUCE, 1000.0)
    assert len(phases) == 1
    assert len(phases[0]) == 4  # one edge per node


def test_ring_single_node_empty():
    assert ring_phases(comm_of(1), OpType.ALLREDUCE, 1000.0) == []


def test_halving_doubling_phase_count():
    comm = comm_of(8)
    phases = halving_doubling_phases(comm, 1000.0)
    assert len(phases) == 2 * 3  # log2(8) rounds each way


def test_halving_doubling_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        halving_doubling_phases(comm_of(6), 1000.0)


def test_halving_doubling_total_traffic_matches_ring():
    # Total per-channel bits summed over phases equals the ring's
    # steady-state edge payload (both realize the same allreduce).
    comm = comm_of(8)
    size = 1000.0
    ring_total = sum(
        t.bits_per_channel for t in ring_phases(comm, OpType.ALLREDUCE, size)[0]
    )
    hd_total = total_bits(halving_doubling_phases(comm, size))
    assert hd_total == pytest.approx(ring_total, rel=1e-9)


def test_halving_doubling_payloads_shrink_then_grow():
    comm = comm_of(8)
    phases = halving_doubling_phases(comm, 1024.0)
    sizes = [phase[0].bits_per_channel for phase in phases]
    assert sizes[0] > sizes[1] > sizes[2]
    assert sizes[3] < sizes[4] < sizes[5]
    assert sizes[:3] == sizes[5:2:-1]


def test_tree_phases_double_coverage():
    comm = comm_of(8)
    phases = tree_phases(comm, 1000.0)
    assert len(phases) == 3
    assert [len(p) for p in phases] == [1, 2, 4]


def test_tree_non_power_of_two():
    comm = comm_of(5, gpus=2)
    phases = tree_phases(comm, 1000.0)
    covered = {comm.node_sequence[0]}
    for phase in phases:
        for transfer in phase:
            assert transfer.src_node in covered
            covered.add(transfer.dst_node)
    assert covered == set(comm.node_sequence)


def test_pairwise_alltoall_covers_all_pairs():
    comm = comm_of(4)
    phases = pairwise_alltoall_phases(comm, 1000.0)
    assert len(phases) == 3
    pairs = {(t.src_node, t.dst_node) for phase in phases for t in phase}
    expected = {(a, b) for a in range(4) for b in range(4) if a != b}
    assert pairs == expected


def test_hierarchical_returns_intra_stages():
    comm = comm_of(4)
    pre, phases, post = hierarchical_allreduce_phases(comm, 1000.0)
    assert pre == 1000.0 and post == 1000.0
    assert len(phases) == 1


def test_hierarchical_single_node():
    pre, phases, post = hierarchical_allreduce_phases(comm_of(1), 1000.0)
    assert phases == []


# ----------------------------------------------------------------------
# End-to-end: the engine runs every algorithm to completion.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "op, algorithm",
    [
        (OpType.ALLREDUCE, Algorithm.RING),
        (OpType.ALLREDUCE, Algorithm.HALVING_DOUBLING),
        (OpType.ALLREDUCE, Algorithm.HIERARCHICAL),
        (OpType.BROADCAST, Algorithm.PIPELINE),
        (OpType.BROADCAST, Algorithm.TREE),
        (OpType.ALLTOALL, Algorithm.PAIRWISE),
    ],
)
def test_engine_completes_each_algorithm(op, algorithm):
    scenario = build_cluster(use_c4p=True, ecmp_seed=3)
    context = CollectiveContext(scenario.topology, selector=scenario.selector())
    comm = context.communicator(contiguous_ranks(range(8), 8))
    handle = context.run_op(comm, op, 1 * GIB, algorithm=algorithm)
    scenario.network.run()
    assert handle.done
    assert handle.duration > 0


def test_incompatible_algorithm_rejected():
    scenario = build_cluster()
    context = CollectiveContext(scenario.topology)
    comm = context.communicator(contiguous_ranks(range(2), 8))
    with pytest.raises(ValueError):
        context.run_op(comm, OpType.ALLTOALL, 1.0, algorithm=Algorithm.RING)


def test_hd_busbw_matches_ring_on_clean_fabric():
    results = {}
    for algorithm in (Algorithm.RING, Algorithm.HALVING_DOUBLING):
        scenario = build_cluster(use_c4p=True, ecmp_seed=3)
        context = CollectiveContext(scenario.topology, selector=scenario.selector())
        comm = context.communicator(contiguous_ranks(range(8), 8))
        handle = context.run_op(comm, OpType.ALLREDUCE, 1 * GIB, algorithm=algorithm)
        scenario.network.run()
        results[algorithm] = handle.busbw_per_nic_gbps
    assert results[Algorithm.HALVING_DOUBLING] == pytest.approx(
        results[Algorithm.RING], rel=0.05
    )


def test_hierarchical_pays_nvlink_stages():
    results = {}
    for algorithm in (Algorithm.RING, Algorithm.HIERARCHICAL):
        scenario = build_cluster(use_c4p=True, ecmp_seed=3)
        context = CollectiveContext(scenario.topology, selector=scenario.selector())
        comm = context.communicator(contiguous_ranks(range(8), 8))
        handle = context.run_op(comm, OpType.ALLREDUCE, 1 * GIB, algorithm=algorithm)
        scenario.network.run()
        results[algorithm] = handle.duration
    # Same fabric traffic plus explicit intra-node stages: slower here,
    # worthwhile only when inter-node bandwidth is the scarce resource.
    assert results[Algorithm.HIERARCHICAL] > results[Algorithm.RING]


def test_send_recv_is_one_directional():
    from repro.collective.communicator import RankLocation

    scenario = build_cluster(ecmp_seed=3)
    context = CollectiveContext(scenario.topology)
    comm = context.communicator(contiguous_ranks(range(2), 8))
    handle = context.run_send_recv(RankLocation(0, 0), RankLocation(1, 0), 1 * GIB, comm=comm)
    scenario.network.run()
    # Only forward-direction host links carried traffic.
    assert scenario.network.link(("hup", 0, 0, 0)).bits_carried > 0 or (
        scenario.network.link(("hup", 0, 0, 1)).bits_carried > 0
    )
    assert scenario.network.link(("hup", 1, 0, 0)).bits_carried == 0
    assert scenario.network.link(("hup", 1, 0, 1)).bits_carried == 0
    assert handle.done
