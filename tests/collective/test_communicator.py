"""Tests for communicators and rank layout."""

import pytest

from repro.collective.communicator import Communicator, RankLocation
from repro.collective.context import CollectiveContext
from repro.collective.placement import contiguous_ranks
from repro.workloads.generator import build_cluster


def test_requires_ranks():
    with pytest.raises(ValueError):
        Communicator([], "c")


def test_duplicate_ranks_rejected():
    rank = RankLocation(node=0, gpu=0)
    with pytest.raises(ValueError):
        Communicator([rank, rank], "c")


def test_unbalanced_rejected():
    ranks = [RankLocation(0, 0), RankLocation(0, 1), RankLocation(1, 0)]
    with pytest.raises(ValueError):
        Communicator(ranks, "c")


def test_size_and_nodes():
    comm = Communicator(contiguous_ranks([0, 1, 2], 4), "c")
    assert comm.size == 12
    assert comm.num_nodes == 3
    assert comm.ranks_per_node == 4
    assert not comm.is_single_node


def test_single_node():
    comm = Communicator(contiguous_ranks([5], 8), "c")
    assert comm.is_single_node
    assert comm.ring_node_edges() == []


def test_node_sequence_order_preserved():
    comm = Communicator(contiguous_ranks([3, 1, 2], 2), "c")
    assert comm.node_sequence == [3, 1, 2]


def test_ring_edges_wrap():
    comm = Communicator(contiguous_ranks([0, 1, 2], 1), "c")
    assert comm.ring_node_edges() == [(0, 1), (1, 2), (2, 0)]


def test_two_node_ring_has_both_directions():
    comm = Communicator(contiguous_ranks([0, 1], 8), "c")
    assert comm.ring_node_edges() == [(0, 1), (1, 0)]


def test_channels_are_local_gpus():
    ranks = [RankLocation(0, 2), RankLocation(1, 2)]
    comm = Communicator(ranks, "c")
    assert comm.channels() == [2]


def test_local_gpus():
    comm = Communicator(contiguous_ranks([0, 1], 3), "c")
    assert comm.local_gpus(0) == [0, 1, 2]


def test_seq_monotonic():
    comm = Communicator(contiguous_ranks([0], 2), "c")
    assert comm.next_seq() == 0
    assert comm.next_seq() == 1


def test_comm_ids_unique_by_default():
    context = CollectiveContext(build_cluster().topology)
    c1 = context.communicator(contiguous_ranks([0], 1))
    c2 = context.communicator(contiguous_ranks([0], 1))
    assert c1.comm_id != c2.comm_id


def test_nic_equals_gpu():
    rank = RankLocation(node=0, gpu=5)
    assert rank.nic == 5
