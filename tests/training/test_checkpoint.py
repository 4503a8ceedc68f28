"""Tests for checkpoint policies."""

import pytest

from repro.training.checkpoint import FREQUENT_CHECKPOINTS, SPARSE_CHECKPOINTS, CheckpointPolicy


def test_validation():
    with pytest.raises(ValueError):
        CheckpointPolicy(interval_seconds=0)
    with pytest.raises(ValueError):
        CheckpointPolicy(interval_seconds=10, save_seconds=-1)
    with pytest.raises(ValueError):
        CheckpointPolicy(interval_seconds=10, save_seconds=10)


def test_lost_work_capped_at_interval():
    policy = CheckpointPolicy(interval_seconds=600)
    assert policy.lost_work(100) == 100
    assert policy.lost_work(1e9) == 600


def test_lost_work_rejects_negative():
    with pytest.raises(ValueError):
        CheckpointPolicy(interval_seconds=600).lost_work(-1)


def test_overhead_fraction():
    policy = CheckpointPolicy(interval_seconds=600, save_seconds=6)
    assert policy.overhead_fraction() == pytest.approx(0.01)


def test_paper_presets_ordering():
    # The deployed fix checkpoints ~28x more often than the June regime.
    ratio = SPARSE_CHECKPOINTS.interval_seconds / FREQUENT_CHECKPOINTS.interval_seconds
    assert ratio > 20
