"""Tests for traffic factors and busbw accounting."""

import pytest

from repro.collective.algorithms import (
    DEFAULT_ALGORITHM,
    Algorithm,
    OpType,
    busbw,
    traffic_factor,
)


def test_allreduce_factor():
    assert traffic_factor(OpType.ALLREDUCE, 4) == pytest.approx(1.5)
    assert traffic_factor(OpType.ALLREDUCE, 2) == pytest.approx(1.0)


def test_factor_approaches_two_for_large_n():
    assert traffic_factor(OpType.ALLREDUCE, 10_000) == pytest.approx(2.0, abs=1e-3)


def test_reduce_scatter_and_allgather_are_half_allreduce():
    for n in (2, 8, 64):
        ar = traffic_factor(OpType.ALLREDUCE, n)
        rs = traffic_factor(OpType.REDUCE_SCATTER, n)
        ag = traffic_factor(OpType.ALL_GATHER, n)
        assert rs + ag == pytest.approx(ar)


def test_broadcast_factor_is_one():
    assert traffic_factor(OpType.BROADCAST, 7) == 1.0


def test_single_rank_factor_zero():
    assert traffic_factor(OpType.ALLREDUCE, 1) == 0.0


def test_invalid_n_rejected():
    with pytest.raises(ValueError):
        traffic_factor(OpType.ALLREDUCE, 0)


def test_busbw_formula():
    # 1.5 factor, 8 bits, 2 seconds -> 6 bits/s.
    assert busbw(OpType.ALLREDUCE, 4, 8.0, 2.0) == pytest.approx(6.0)


def test_busbw_rejects_zero_time():
    with pytest.raises(ValueError):
        busbw(OpType.ALLREDUCE, 4, 8.0, 0.0)


def test_every_op_has_default_algorithm():
    for op in OpType:
        assert op in DEFAULT_ALGORITHM
        assert isinstance(DEFAULT_ALGORITHM[op], Algorithm)
