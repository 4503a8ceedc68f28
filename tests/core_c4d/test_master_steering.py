"""Tests for the C4D master, steering service, classifier and RCA."""

import pytest

from repro.cluster.faults import FaultClass, FaultEvent, FaultType
from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.algorithms import OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import CommunicatorRecord, OpLaunchRecord
from repro.core.c4d.classifier import CauseBucket, classify_anomaly, classify_fault
from repro.core.c4d.detectors import DetectorConfig
from repro.core.c4d.events import Anomaly, AnomalyType, Suspect, SuspectKind
from repro.core.c4d.master import C4DMaster
from repro.core.c4d.rca import RootCauseAnalyzer
from repro.core.c4d.steering import (
    JobSteeringService,
    SteeringConfig,
    SteeringFaultModel,
    retry_backoff,
)
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.collector import CentralCollector


def anomaly(node=3, kind=SuspectKind.WORKER, atype=AnomalyType.NONCOMM_HANG):
    return Anomaly(
        anomaly_type=atype,
        comm_id="c",
        detected_at=10.0,
        suspects=(Suspect(kind=kind, node=node, device=0),),
    )


@pytest.fixture
def topo():
    return ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=0)


def test_steering_isolates_and_replaces(topo):
    service = JobSteeringService(topo, backup_nodes=[14, 15])
    action = service.handle(anomaly(node=3), now=100.0)
    assert action.isolated_nodes == (3,)
    assert action.replacement_nodes == (14,)
    assert not topo.node(3).is_schedulable
    assert action.ready_at == pytest.approx(100.0 + 300.0)


def test_steering_dedups_repeated_verdict(topo):
    service = JobSteeringService(topo, backup_nodes=[14])
    service.handle(anomaly(node=3), now=0.0)
    # Same fault key inside the dedup window: suppressed, not re-executed.
    assert service.handle(anomaly(node=3), now=1.0) is None
    assert service.dedup_hits == 1
    assert service.backup_pool == []
    assert len(service.executed_actions) == 1


def test_steering_dedup_window_expires(topo):
    service = JobSteeringService(topo, backup_nodes=[14, 15], dedup_window=100.0)
    service.handle(anomaly(node=3), now=0.0)
    # Outside the window the same fault key may be acted on again; the
    # node is already isolated so the action is an idempotent no-op.
    action = service.handle(anomaly(node=3), now=200.0)
    assert action is not None
    assert action.isolated_nodes == ()


def test_steering_dedup_ignores_epoch(topo):
    service = JobSteeringService(topo, backup_nodes=[14, 15])
    service.handle(anomaly(node=3), now=0.0, epoch=0)
    # A restarted (higher-epoch) master re-deriving the verdict is
    # still a duplicate — epochs fence stale writers, not dedup.
    assert service.handle(anomaly(node=3), now=5.0, epoch=3) is None


def test_steering_pool_exhaustion(topo):
    service = JobSteeringService(topo, backup_nodes=[])
    action = service.handle(anomaly(node=5), now=0.0)
    assert action.isolated_nodes == (5,)
    assert action.replacement_nodes == ()


def test_steering_config_latencies(topo):
    service = JobSteeringService(
        topo, backup_nodes=[], config=SteeringConfig(isolation_seconds=10, restart_seconds=20)
    )
    action = service.handle(anomaly(node=1), now=5.0)
    assert action.ready_at == 35.0


def test_classify_fault_buckets():
    event = FaultEvent(0.0, FaultType.ECC_NVLINK_ERROR, FaultClass.CRASH, True, 1, 2)
    assert classify_fault(event) is CauseBucket.ECC_NVLINK
    other = FaultEvent(0.0, FaultType.NETWORK_OTHER, FaultClass.CRASH, False)
    assert classify_fault(other) is CauseBucket.UNKNOWN


def test_classify_anomaly_by_syndrome():
    assert classify_anomaly(anomaly(atype=AnomalyType.NONCOMM_HANG)) is CauseBucket.CUDA_ERROR
    assert classify_anomaly(anomaly(atype=AnomalyType.COMM_HANG)) is CauseBucket.ACK_TIMEOUT
    assert classify_anomaly(anomaly(atype=AnomalyType.COMM_SLOW)) is CauseBucket.CCL_TIMEOUT


def test_classify_anomaly_hint_dominates():
    result = classify_anomaly(
        anomaly(atype=AnomalyType.COMM_HANG), device_error_hint=FaultType.CUDA_ERROR
    )
    assert result is CauseBucket.CUDA_ERROR


def test_rca_report():
    rca = RootCauseAnalyzer()
    rca.submit(anomaly(atype=AnomalyType.COMM_HANG))
    rca.submit(anomaly(atype=AnomalyType.COMM_HANG))
    rca.submit(
        anomaly(atype=AnomalyType.NONCOMM_HANG),
        fault_context=FaultEvent(0.0, FaultType.CUDA_ERROR, FaultClass.CRASH, True, 1),
    )
    report = rca.report()
    assert report.total_cases == 3
    assert report.proportion(CauseBucket.ACK_TIMEOUT) == pytest.approx(2 / 3)
    assert report.proportion(CauseBucket.CUDA_ERROR) == pytest.approx(1 / 3)


def _hang_collector():
    collector = CentralCollector()
    ranks = tuple(RankLocation(i, 0) for i in range(4))
    collector.ingest_communicator(CommunicatorRecord("c", 4, ranks), now=0.0)
    for rank in range(3):  # rank 3 never launches
        collector.ingest_launch(
            OpLaunchRecord("c", 0, OpType.ALLREDUCE, rank, ranks[rank], 0.0)
        )
    return collector


def test_master_detects_and_steers(topo):
    collector = _hang_collector()
    steering = JobSteeringService(topo, backup_nodes=[15])
    rca = RootCauseAnalyzer()
    master = C4DMaster(collector, DetectorConfig(hang_timeout=30.0), steering=steering)
    fresh = master.evaluate(now=60.0)
    for found in fresh:
        rca.submit(found)
    assert len(fresh) == 1
    assert fresh[0].anomaly_type is AnomalyType.NONCOMM_HANG
    assert steering.actions and steering.actions[0].isolated_nodes == (3,)
    assert rca.report().total_cases == 1


def test_master_cooldown_suppresses_repeats(topo):
    collector = _hang_collector()
    master = C4DMaster(collector, DetectorConfig(hang_timeout=30.0))
    assert len(master.evaluate(now=60.0)) == 1
    assert master.evaluate(now=70.0) == []
    assert len(master.evaluate(now=400.0)) == 1


def _multi_comm_straggler_collector():
    """Two communicators both implicating node 3 as a straggler."""
    from repro.collective.algorithms import Algorithm
    from repro.collective.monitoring import OpRecord

    collector = CentralCollector()
    for comm_id in ("dp0", "dp1"):
        ranks = tuple(RankLocation(i, 0) for i in range(8))
        collector.ingest_communicator(
            CommunicatorRecord(comm_id, 8, ranks), now=0.0
        )
        for seq in range(3):
            launches = [float(seq)] * 8
            launches[3] = seq + 1.0
            start = max(launches)
            for rank in range(8):
                collector.ingest_op(
                    OpRecord(
                        comm_id=comm_id, seq=seq, op_type=OpType.ALLREDUCE,
                        algorithm=Algorithm.RING, dtype="fp16", element_count=1,
                        rank=rank, location=ranks[rank],
                        launch_time=launches[rank], start_time=start,
                        end_time=start + 0.5,
                    )
                )
    return collector


def test_master_aggregates_cross_communicator_suspects():
    collector = _multi_comm_straggler_collector()
    master = C4DMaster(collector)
    fresh = master.evaluate(now=10.0)
    # Two per-communicator NONCOMM_SLOW anomalies fuse into one
    # node-scoped anomaly.
    assert len(fresh) == 1
    anomaly = fresh[0]
    assert anomaly.comm_id == "<multiple>"
    assert anomaly.suspects[0].kind is SuspectKind.NODE
    assert anomaly.suspects[0].node == 3
    assert set(anomaly.evidence["comm_ids"]) == {"dp0", "dp1"}


# ----------------------------------------------------------------------
# Hardened steering: idempotency, pool exhaustion, retries, DOA spares
# ----------------------------------------------------------------------
def test_pool_exhaustion_sets_structured_field(topo, caplog):
    service = JobSteeringService(topo, backup_nodes=[14])
    both = Anomaly(
        anomaly_type=AnomalyType.NONCOMM_HANG,
        comm_id="c",
        detected_at=10.0,
        suspects=(
            Suspect(kind=SuspectKind.WORKER, node=3, device=0),
            Suspect(kind=SuspectKind.WORKER, node=5, device=0),
        ),
    )
    with caplog.at_level("WARNING"):
        action = service.handle(both, now=0.0)
    assert action.pool_exhausted is True
    assert action.isolated_nodes == (3, 5)
    assert action.replacement_nodes == (14,)
    assert any("exhausted" in r.message for r in caplog.records)


def test_pool_not_exhausted_flag_false(topo):
    service = JobSteeringService(topo, backup_nodes=[14, 15])
    action = service.handle(anomaly(node=3), now=0.0)
    assert action.pool_exhausted is False


def test_isolation_retries_with_capped_backoff(topo):
    # seed 0 draws ~0.64, 0.27, 0.04 — all below 0.99, so every
    # attempt fails deterministically and the node stays in the job.
    service = JobSteeringService(
        topo,
        backup_nodes=[15],
        faults=SteeringFaultModel(isolation_failure_rate=0.99, seed=0),
    )
    action = service.handle(anomaly(node=3), now=0.0)
    assert action.failed_isolations == (3,)
    assert action.isolated_nodes == ()
    assert action.attempts == 3
    # Backoff between attempts: 15 + 30 (capped exponential, base 15).
    assert action.backoff_seconds == pytest.approx(45.0)
    assert action.ready_at == pytest.approx(300.0 + 45.0)
    assert topo.node(3).is_schedulable  # isolation never landed
    assert service.backup_pool == [15]  # no replacement drawn


def test_dead_on_arrival_replacements_are_recorded(topo):
    service = JobSteeringService(
        topo,
        backup_nodes=[14, 15],
        faults=SteeringFaultModel(replacement_doa_rate=0.99, seed=0),
    )
    action = service.handle(anomaly(node=3), now=0.0)
    assert action.isolated_nodes == (3,)
    assert action.replacement_nodes == ()
    assert action.doa_replacements == (14, 15)
    assert action.pool_exhausted is True
    # DOA spares are isolated too (they are broken hardware).
    assert not topo.node(14).is_schedulable
    assert not topo.node(15).is_schedulable


def test_retry_backoff_is_capped():
    assert retry_backoff(0) == 15.0
    assert retry_backoff(2) == 60.0
    assert retry_backoff(10) == 120.0  # capped


# ----------------------------------------------------------------------
# Master robustness gates: debounce and per-node action hysteresis
# ----------------------------------------------------------------------
def test_debounce_requires_consecutive_sightings(topo):
    collector = _hang_collector()
    steering = JobSteeringService(topo, backup_nodes=[15])
    master = C4DMaster(
        collector,
        DetectorConfig(hang_timeout=30.0, debounce_evaluations=2),
        steering=steering,
    )
    assert master.evaluate(now=60.0) == []  # first sighting held back
    fresh = master.evaluate(now=70.0)  # second consecutive one passes
    assert len(fresh) == 1
    assert steering.actions[0].isolated_nodes == (3,)


def test_debounce_resets_on_gap():
    collector = _hang_collector()
    master = C4DMaster(
        collector, DetectorConfig(hang_timeout=30.0, debounce_evaluations=3)
    )
    assert master.evaluate(now=60.0) == []
    assert master.evaluate(now=70.0) == []
    assert len(master.evaluate(now=80.0)) == 1


def test_node_action_cooldown_suppresses_reisolation(topo):
    collector = _hang_collector()
    steering = JobSteeringService(topo, backup_nodes=[14, 15])
    master = C4DMaster(
        collector,
        DetectorConfig(hang_timeout=30.0, node_action_cooldown=600.0),
        steering=steering,
    )
    assert len(master.evaluate(now=60.0)) == 1
    # A second incarnation hangs on the same node: a different comm_id
    # defeats the per-key cooldown, but the node-level hysteresis holds.
    ranks = tuple(RankLocation(i, 0) for i in range(4))
    collector.ingest_communicator(CommunicatorRecord("c2", 4, ranks), now=61.0)
    for rank in range(3):
        collector.ingest_launch(
            OpLaunchRecord("c2", 0, OpType.ALLREDUCE, rank, ranks[rank], 61.0)
        )
    assert master.evaluate(now=120.0) == []
    assert len(steering.actions) == 1
    # After the cooldown expires, the node is actionable again.
    assert len(master.evaluate(now=700.0)) == 1


class _RecordingSteering:
    """Records what the master dispatches; isolates nothing."""

    def __init__(self) -> None:
        self.handled = []

    def handle(self, anomaly, now, epoch=0):
        self.handled.append(anomaly)


def test_verdict_naming_half_the_job_isolates_nothing():
    # 8,192 ranks on 1,024 nodes; the 4,096 ranks of nodes 0-511 never
    # launch: one hang naming 4,096 workers on 512 nodes, far past the
    # larger of 4 nodes and 1/16 of the communicator's 1,024.
    ranks = tuple(RankLocation(rank // 8, rank % 8) for rank in range(8192))
    collector = CentralCollector(metrics=MetricsRegistry())
    collector.ingest_communicator(CommunicatorRecord("c", len(ranks), ranks), now=0.0)
    for rank in range(4096, 8192):
        collector.ingest_launch(OpLaunchRecord("c", 0, OpType.ALLREDUCE, rank, ranks[rank], 1.0))
    registry = MetricsRegistry()
    steering = _RecordingSteering()
    master = C4DMaster(
        collector, DetectorConfig(hang_timeout=30.0), steering=steering, metrics=registry
    )
    assert master.evaluate(now=60.0) == []
    assert steering.handled == [] and master.anomalies == []
    (degraded,) = master.degraded_anomalies
    assert degraded.anomaly_type is AnomalyType.NONCOMM_HANG
    assert len(degraded.suspects) == 4096
    assert degraded.suspect_nodes == list(range(512))
    assert degraded.evidence["degraded"] is True
    suppressed = registry.counter("c4d_suppressions_total", labels=("gate",))
    assert suppressed.labels(gate="scope").value == 1
    assert suppressed.labels(gate="degraded").value == 0
