"""Tests for the in-memory checkpoint engine."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.context import CollectiveContext
from repro.netsim.network import FlowNetwork
from repro.training.job import JobSpec, TrainingJob
from repro.training.memory_checkpoint import InMemoryCheckpointer
from repro.training.models import GPT_22B
from repro.training.parallelism import ParallelismPlan


def test_validation():
    with pytest.raises(ValueError):
        InMemoryCheckpointer(interval_steps=0)
    with pytest.raises(ValueError):
        InMemoryCheckpointer(save_seconds=-1)
    with pytest.raises(ValueError):
        InMemoryCheckpointer(capacity=0)


def test_saves_on_cadence():
    ckpt = InMemoryCheckpointer(interval_steps=10, save_seconds=0.5)
    costs = [ckpt.maybe_save(step, now=float(step)) for step in range(25)]
    assert costs[9] == 0.5 and costs[19] == 0.5
    assert sum(1 for c in costs if c > 0) == 2
    assert [s.step for s in ckpt.snapshots] == [9, 19]


def test_capacity_evicts_oldest():
    ckpt = InMemoryCheckpointer(interval_steps=1, capacity=2)
    for step in range(5):
        ckpt.maybe_save(step, now=float(step))
    assert len(ckpt.snapshots) == 2
    assert ckpt.snapshots[0].step == 3


def test_latest_respects_crash_time():
    ckpt = InMemoryCheckpointer(interval_steps=1, capacity=10)
    for step in range(3):
        ckpt.maybe_save(step, now=float(step))
    # Crash at t=1.5: the snapshot at t=2 does not exist yet.
    snapshot = ckpt.restore(crash_time=1.5)
    assert snapshot is not None and snapshot.step == 1


def test_latest_none_before_first_save():
    ckpt = InMemoryCheckpointer(interval_steps=10)
    assert ckpt.restore(crash_time=100.0) is None


def test_restore_counts():
    ckpt = InMemoryCheckpointer(interval_steps=1)
    ckpt.maybe_save(0, now=0.0)
    snapshot = ckpt.restore(crash_time=5.0)
    assert snapshot is not None and snapshot.step == 0
    assert ckpt.last_restore_fallbacks == 0


def test_negative_step_rejected():
    with pytest.raises(ValueError):
        InMemoryCheckpointer().maybe_save(-1, now=0.0)


def test_training_job_pays_save_cost():
    def run(checkpointer):
        net = FlowNetwork()
        topo = ClusterTopology(TESTBED_16_NODES, net, ecmp_seed=2)
        ctx = CollectiveContext(topo, job_id="ck")
        spec = JobSpec("ck", GPT_22B, ParallelismPlan(tp=8, dp=4), global_batch=32)
        job = TrainingJob(spec, ctx, nodes=[0, 1, 2, 3], checkpointer=checkpointer)
        job.run_steps(4)
        net.run()
        return net.now

    plain = run(None)
    ckpt = InMemoryCheckpointer(interval_steps=2, save_seconds=1.0)
    with_saves = run(ckpt)
    # Saves after steps 2 and 4; only the step-2 save delays a following
    # step inside the run.
    assert with_saves == pytest.approx(plain + 1.0, rel=1e-6)
    assert [s.step for s in ckpt.snapshots] == [1, 3]


# ----------------------------------------------------------------------
# Integrity validation and the restore fallback chain
# ----------------------------------------------------------------------
def test_snapshot_corruption_detected():
    ckpt = InMemoryCheckpointer(interval_steps=1)
    ckpt.maybe_save(0, now=0.0)
    snapshot = ckpt.snapshots[0]
    assert snapshot.is_valid
    snapshot.corrupt()
    assert not snapshot.is_valid


def test_restore_falls_back_past_corrupted_snapshot():
    ckpt = InMemoryCheckpointer(interval_steps=1, capacity=4)
    for step in range(3):
        ckpt.maybe_save(step, now=float(step))
    assert ckpt.corrupt_latest() == 1
    snapshot = ckpt.restore(crash_time=10.0)
    assert snapshot is not None and snapshot.step == 1
    assert ckpt.last_restore_fallbacks == 1


def test_restore_cold_starts_when_all_corrupted():
    ckpt = InMemoryCheckpointer(interval_steps=1, capacity=4)
    for step in range(2):
        ckpt.maybe_save(step, now=float(step))
    assert ckpt.corrupt_latest(count=2) == 2
    assert ckpt.restore(crash_time=10.0) is None
    assert ckpt.last_restore_fallbacks == 2
