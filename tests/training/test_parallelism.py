"""Tests for parallelization plans."""

import pytest

from repro.training.parallelism import ParallelismPlan


def test_world_size():
    plan = ParallelismPlan(tp=8, pp=2, dp=4)
    assert plan.world_size == 64


def test_validation():
    with pytest.raises(ValueError):
        ParallelismPlan(tp=0)
    with pytest.raises(ValueError):
        ParallelismPlan(grad_accumulation=0)


def test_nodes_required():
    assert ParallelismPlan(tp=8, dp=16).nodes_required(8) == 16
    assert ParallelismPlan(tp=4).nodes_required(8) == 1


def test_dp_shard_fraction():
    plan = ParallelismPlan(tp=8, pp=8, dp=2)
    assert plan.dp_shard_fraction == pytest.approx(1 / 64)


def test_dp_groups_tp8_are_rail_aligned():
    plan = ParallelismPlan(tp=8, dp=4)
    groups = plan.dp_groups(list(range(4)), 8)
    assert len(groups) == 8
    for offset, group in enumerate(groups):
        assert len(group) == 4
        assert all(rank.gpu == offset for rank in group)
        assert [rank.node for rank in group] == [0, 1, 2, 3]


def test_dp_groups_pure_dp_single_group():
    plan = ParallelismPlan(dp=16)
    groups = plan.dp_groups(list(range(2)), 8)
    assert len(groups) == 1
    assert len(groups[0]) == 16


def test_dp_groups_tp_pp():
    # GPT-175B job: tp8 pp8 dp2 on 16 nodes.
    plan = ParallelismPlan(tp=8, pp=8, dp=2)
    groups = plan.dp_groups(list(range(16)), 8)
    assert len(groups) == 64
    for group in groups:
        assert len(group) == 2
        # Replica stride: second member 8 nodes after the first.
        assert group[1].node - group[0].node == 8
        assert group[0].gpu == group[1].gpu


def test_dp_groups_validates_capacity():
    plan = ParallelismPlan(tp=8, dp=16)
    with pytest.raises(ValueError):
        plan.dp_groups(list(range(4)), 8)


def test_tp_must_fit_in_node():
    plan = ParallelismPlan(tp=16)
    with pytest.raises(ValueError):
        plan.dp_groups(list(range(2)), 8)


def test_pp_boundaries():
    plan = ParallelismPlan(tp=8, pp=4, dp=1)
    pairs = plan.pp_boundaries(list(range(4)), 8)
    assert len(pairs) == 3
    assert [(s.node, d.node) for s, d in pairs] == [(0, 1), (1, 2), (2, 3)]


def test_pp_boundaries_multiple_replicas():
    plan = ParallelismPlan(tp=8, pp=2, dp=2)
    pairs = plan.pp_boundaries(list(range(4)), 8)
    assert len(pairs) == 2
    assert [(s.node, d.node) for s, d in pairs] == [(0, 1), (2, 3)]


def test_no_pp_boundaries_without_pp():
    assert ParallelismPlan(dp=4).pp_boundaries([0, 1], 8) == []


def test_ep_must_divide_world():
    with pytest.raises(ValueError):
        ParallelismPlan(dp=10, ep=3)


def test_ep_groups_contiguous_blocks():
    plan = ParallelismPlan(dp=32, ep=16)
    groups = plan.ep_groups(list(range(4)), 8)
    assert len(groups) == 2
    first = groups[0]
    assert len(first) == 16
    assert {r.node for r in first} == {0, 1}
    assert [r.gpu for r in first[:8]] == list(range(8))


def test_ep_one_means_no_groups():
    assert ParallelismPlan(dp=8).ep_groups(list(range(1)), 8) == []
