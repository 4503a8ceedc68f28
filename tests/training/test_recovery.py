"""Tests for the closed-loop recovery orchestrator (Fig. 4)."""

import pytest

from repro.core.c4d.detectors import DetectorConfig
from repro.core.c4d.steering import SteeringConfig, SteeringFaultModel
from repro.training.job import JobSpec
from repro.training.memory_checkpoint import InMemoryCheckpointer
from repro.training.models import GPT_22B
from repro.training.parallelism import ParallelismPlan
from repro.training.recovery import RecoveryOrchestrator
from repro.training.scheduler import ClusterScheduler
from repro.workloads.generator import build_cluster

SPEC = JobSpec("train", GPT_22B, ParallelismPlan(tp=8, dp=4), global_batch=64)


def build_orchestrator(checkpoint_interval=3, backup_ratio=1 / 16, steering_faults=None):
    scenario = build_cluster(ecmp_seed=2)
    scheduler = ClusterScheduler(scenario.topology, backup_ratio=backup_ratio)
    orchestrator = RecoveryOrchestrator(
        scenario.topology,
        scheduler,
        SPEC,
        detector_config=DetectorConfig(hang_timeout=20.0),
        steering_config=SteeringConfig(isolation_seconds=30, restart_seconds=30),
        checkpointer=InMemoryCheckpointer(interval_steps=checkpoint_interval, save_seconds=0.1),
        evaluation_interval=5.0,
        steering_faults=steering_faults,
    )
    return scenario, scheduler, orchestrator


def test_run_without_faults_completes():
    scenario, _scheduler, orchestrator = build_orchestrator()
    report = orchestrator.start(num_nodes=4, total_steps=6)
    scenario.network.run(until=200.0)
    assert report.finished
    assert report.events == []


def test_crash_is_detected_isolated_and_survived():
    scenario, scheduler, orchestrator = build_orchestrator()
    report = orchestrator.start(num_nodes=4, total_steps=20)
    scenario.network.schedule(8.0, lambda: orchestrator.crash_node(2))
    scenario.network.run(until=500.0)

    assert report.finished
    assert len(report.events) == 1
    event = report.events[0]
    # Detection within hang timeout + evaluation cadence ("tens of
    # seconds", not PyTorch's 30 minutes).
    assert event.detection_seconds <= 30.0
    assert event.action.isolated_nodes == (2,)
    assert event.action.replacement_nodes == (15,)  # the testbed's backup node
    # Post-checkpoint loss bounded by the snapshot cadence.
    assert event.lost_steps <= 3
    # The cluster state reflects the swap.
    assert not scenario.topology.node(2).is_schedulable
    allocation = scheduler.allocation_of("job")
    assert 2 not in allocation.nodes and 15 in allocation.nodes


def test_restart_resumes_from_snapshot():
    scenario, _scheduler, orchestrator = build_orchestrator(checkpoint_interval=2)
    report = orchestrator.start(num_nodes=4, total_steps=12)
    scenario.network.schedule(16.0, lambda: orchestrator.crash_node(1))
    scenario.network.run(until=500.0)
    assert report.finished
    event = report.events[0]
    assert event.restored_step > 0  # a snapshot existed before the crash
    assert event.lost_steps <= 2


def test_double_start_rejected():
    scenario, _scheduler, orchestrator = build_orchestrator()
    orchestrator.start(num_nodes=4, total_steps=2)
    with pytest.raises(RuntimeError):
        orchestrator.start(num_nodes=4, total_steps=2)


def test_crash_without_job_rejected():
    _scenario, _scheduler, orchestrator = build_orchestrator()
    with pytest.raises(RuntimeError):
        orchestrator.crash_node(0)


def test_second_crash_uses_no_more_backups_gracefully():
    # Only one backup node exists; a second crash shrinks the job.
    scenario, scheduler, orchestrator = build_orchestrator()
    report = orchestrator.start(num_nodes=4, total_steps=30)
    scenario.network.schedule(8.0, lambda: orchestrator.crash_node(2))
    scenario.network.schedule(150.0, lambda: orchestrator.crash_node(0))
    scenario.network.run(until=900.0)
    assert len(report.events) == 2
    second = report.events[1]
    assert second.action.isolated_nodes == (0,)
    assert second.action.replacement_nodes == ()  # pool exhausted
    allocation = scheduler.allocation_of("job")
    assert len(allocation.nodes) == 3


def test_steering_faults_pin_every_event_and_node_order():
    # Two spares (nodes 14 and 15) under injected steering faults.  The
    # first crash pays two failed isolation attempts (15 s + 30 s of
    # backoff) and a dead-on-arrival spare before node 15 takes node 1's
    # place; the second crash finds the pool empty and shrinks the job.
    scenario, scheduler, orchestrator = build_orchestrator(
        backup_ratio=1 / 8,
        steering_faults=SteeringFaultModel(
            isolation_failure_rate=0.5, replacement_doa_rate=0.5, seed=2
        ),
    )
    report = orchestrator.start(num_nodes=4, total_steps=30)
    scenario.network.schedule(8.0, lambda: orchestrator.crash_node(1))
    scenario.network.schedule(200.0, lambda: orchestrator.crash_node(2))
    scenario.network.run(until=1500.0)

    assert report.finished and report.completed_steps == 30
    first, second = report.events
    assert first.crash_time == 8.0 and first.detected_at == 30.0
    assert first.action.isolated_nodes == (1,)
    assert first.action.replacement_nodes == (15,)
    assert first.action.doa_replacements == (14,)
    assert first.action.attempts == 3
    assert first.action.backoff_seconds == 45.0
    assert first.action.pool_exhausted is False
    assert first.action.ready_at == 135.0
    assert (first.restored_step, first.lost_steps, first.restore_fallbacks) == (0, 3, 0)
    assert second.crash_time == 200.0 and second.detected_at == 225.0
    assert second.action.isolated_nodes == (2,)
    assert second.action.replacement_nodes == ()
    assert second.action.doa_replacements == ()
    assert second.action.attempts == 1
    assert second.action.backoff_seconds == 0.0
    assert second.action.pool_exhausted is True
    assert second.action.ready_at == 285.0
    assert (second.restored_step, second.lost_steps, second.restore_fallbacks) == (18, 2, 0)
    # Node order decides rank placement: the spare takes the isolated
    # node's position, and an unreplaced node is dropped in place.
    assert scheduler.allocation_of("job").nodes == (0, 15, 3)
