"""Tests for the syndrome detectors over the collector."""

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import CommunicatorRecord, MessageRecord, OpLaunchRecord, OpRecord
from repro.core.c4d import detectors
from repro.core.c4d.detectors import (
    CommSlowDetector,
    DetectorConfig,
    HangDetector,
    NonCommSlowDetector,
)
from repro.core.c4d.events import AnomalyType, SuspectKind
from repro.core.c4d.master import C4DMaster
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.collector import CentralCollector


SIZE = 8


def make_collector():
    collector = CentralCollector()
    ranks = tuple(RankLocation(i // 4, i % 4) for i in range(SIZE))
    collector.ingest_communicator(CommunicatorRecord("c", SIZE, ranks), now=0.0)
    return collector


def complete_op(collector, seq, end, launches=None):
    launches = launches or [end - 1.0] * SIZE
    start = max(launches)
    for rank in range(SIZE):
        collector.ingest_launch(
            OpLaunchRecord("c", seq, OpType.ALLREDUCE, rank, RankLocation(rank // 4, rank % 4), launches[rank])
        )
        collector.ingest_op(
            OpRecord(
                comm_id="c", seq=seq, op_type=OpType.ALLREDUCE, algorithm=Algorithm.RING,
                dtype="fp16", element_count=1, rank=rank,
                location=RankLocation(rank // 4, rank % 4),
                launch_time=launches[rank], start_time=start, end_time=end,
            )
        )


def launch_only(collector, seq, time, ranks):
    for rank in ranks:
        collector.ingest_launch(
            OpLaunchRecord("c", seq, OpType.ALLREDUCE, rank, RankLocation(rank // 4, rank % 4), time)
        )


def test_no_hang_when_progressing():
    collector = make_collector()
    complete_op(collector, 0, end=1.0)
    detector = HangDetector(collector, DetectorConfig(hang_timeout=30.0))
    assert detector.evaluate(now=5.0) == []


def test_no_hang_when_nothing_outstanding():
    collector = make_collector()
    complete_op(collector, 0, end=1.0)
    detector = HangDetector(collector, DetectorConfig(hang_timeout=30.0))
    assert detector.evaluate(now=1000.0) == []


def test_comm_hang_all_launched():
    collector = make_collector()
    complete_op(collector, 0, end=1.0)
    launch_only(collector, 1, 1.1, range(SIZE))
    detector = HangDetector(collector, DetectorConfig(hang_timeout=30.0))
    anomalies = detector.evaluate(now=60.0)
    assert len(anomalies) == 1
    assert anomalies[0].anomaly_type is AnomalyType.COMM_HANG
    assert anomalies[0].suspects[0].kind is SuspectKind.UNKNOWN


def test_noncomm_hang_localizes_missing_rank():
    collector = make_collector()
    complete_op(collector, 0, end=1.0)
    launch_only(collector, 1, 1.1, [r for r in range(SIZE) if r != 6])
    detector = HangDetector(collector, DetectorConfig(hang_timeout=30.0))
    anomalies = detector.evaluate(now=60.0)
    assert len(anomalies) == 1
    anomaly = anomalies[0]
    assert anomaly.anomaly_type is AnomalyType.NONCOMM_HANG
    assert len(anomaly.suspects) == 1
    assert (anomaly.suspects[0].node, anomaly.suspects[0].device) == (1, 2)


def test_hang_respects_timeout():
    collector = make_collector()
    complete_op(collector, 0, end=1.0)
    launch_only(collector, 1, 1.1, range(SIZE))
    detector = HangDetector(collector, DetectorConfig(hang_timeout=30.0))
    assert detector.evaluate(now=10.0) == []
    assert detector.evaluate(now=31.5) != []


#: Twice what the launch window holds, so one operation's launches overflow it.
LARGE = 2 * CentralCollector.OP_WINDOW


def large_hang(missing=()):
    """A ``LARGE``-rank communicator whose seq 1 every rank but ``missing`` launched."""
    collector = CentralCollector(metrics=MetricsRegistry())
    ranks = tuple(RankLocation(i // 8, i % 8) for i in range(LARGE))
    collector.ingest_communicator(CommunicatorRecord("c", LARGE, ranks), now=0.0)
    for rank in range(LARGE):
        if rank not in missing:
            collector.ingest_launch(
                OpLaunchRecord("c", 1, OpType.ALLREDUCE, rank, ranks[rank], 1.0)
            )
    return HangDetector(collector, DetectorConfig(hang_timeout=30.0)).evaluate(now=60.0)


def test_comm_hang_at_8192_ranks_outlives_the_launch_window():
    anomalies = large_hang()
    assert len(anomalies) == 1
    assert anomalies[0].anomaly_type is AnomalyType.COMM_HANG
    assert [s.kind for s in anomalies[0].suspects] == [SuspectKind.UNKNOWN]


def test_noncomm_hang_at_8192_ranks_names_only_the_missing_rank():
    anomalies = large_hang(missing={5000})
    assert len(anomalies) == 1
    assert anomalies[0].anomaly_type is AnomalyType.NONCOMM_HANG
    assert [(s.kind, s.node, s.device) for s in anomalies[0].suspects] == [
        (SuspectKind.WORKER, 625, 0)
    ]


def message(seq, src, dst, duration, complete):
    return MessageRecord(
        comm_id="c", seq=seq, src_node=src, src_nic=0, dst_node=dst, dst_nic=0,
        src_ip="a", dst_ip="b", qp_num=1, src_port=1, message_index=0,
        size_bits=100.0, post_time=complete - duration, complete_time=complete,
    )


def test_comm_slow_detector_needs_enough_ops():
    collector = make_collector()
    for i in range(4):
        collector.ingest_message(message(0, i, i + 1, 1.0, complete=1.0))
    detector = CommSlowDetector(collector, DetectorConfig())
    assert detector.evaluate(now=2.0) == []


def test_comm_slow_detector_flags_degraded_pair():
    collector = make_collector()
    for seq in (0, 1):
        for i in range(8):
            j = (i + 1) % 8
            duration = 4.0 if (i, j) == (2, 3) else 1.0
            collector.ingest_message(message(seq, i, j, duration, complete=seq + 1.0))
    detector = CommSlowDetector(collector, DetectorConfig(slow_window=100.0))
    anomalies = detector.evaluate(now=2.0)
    assert len(anomalies) == 1
    assert anomalies[0].anomaly_type is AnomalyType.COMM_SLOW


def test_comm_slow_detector_window_excludes_old_records():
    collector = make_collector()
    for seq in (0, 1):
        for i in range(8):
            duration = 4.0 if i == 2 else 1.0
            collector.ingest_message(message(seq, i, (i + 1) % 8, duration, complete=1.0))
    detector = CommSlowDetector(collector, DetectorConfig(slow_window=10.0))
    assert detector.evaluate(now=1000.0) == []


def skipped(registry, detector, reason):
    family = registry.counter("c4d_detector_skipped_total", labels=("detector", "reason"))
    return family.labels(detector=detector, reason=reason).value


def test_skipped_communicators_are_counted_by_reason(monkeypatch):
    registry = MetricsRegistry()
    collector = make_collector()
    for i in range(4):
        collector.ingest_message(message(0, i, i + 1, 1.0, complete=1.0))
    comm_slow = CommSlowDetector(collector, DetectorConfig(), registry)
    assert comm_slow.evaluate(now=2.0) == []  # one seq in the window
    assert comm_slow.evaluate(now=1000.0) == []  # nothing in the window
    assert skipped(registry, "comm_slow", "too_few_ops") == 1
    assert skipped(registry, "comm_slow", "no_records") == 1

    complete_op(collector, 0, end=2.0)
    complete_op(collector, 1, end=3.0)
    smoothed = NonCommSlowDetector(collector, DetectorConfig(smooth_window_ops=3), registry)
    assert smoothed.evaluate(now=4.0) == []
    monkeypatch.setattr(detectors, "MIN_OPS_FOR_SLOW", 3)
    assert NonCommSlowDetector(collector, DetectorConfig(), registry).evaluate(now=4.0) == []
    assert skipped(registry, "noncomm_slow", "too_few_ops") == 2


def test_master_counts_skips_in_its_registry():
    registry = MetricsRegistry()
    C4DMaster(make_collector(), metrics=registry).evaluate(now=1.0)
    assert skipped(registry, "comm_slow", "no_records") == 1
    assert skipped(registry, "noncomm_slow", "too_few_ops") == 1


def test_noncomm_slow_requires_persistence():
    collector = make_collector()
    launches_straggler = [0.0] * SIZE
    launches_straggler[5] = 1.0
    # Straggler only in one of the two ops -> not persistent.
    complete_op(collector, 0, end=2.0, launches=launches_straggler)
    complete_op(collector, 1, end=4.0, launches=[3.0] * SIZE)
    detector = NonCommSlowDetector(collector, DetectorConfig())
    assert detector.evaluate(now=5.0) == []


def test_noncomm_slow_detects_persistent_straggler():
    collector = make_collector()
    for seq in range(3):
        launches = [float(seq)] * SIZE
        launches[5] = seq + 1.0
        complete_op(collector, seq, end=seq + 2.0, launches=launches)
    detector = NonCommSlowDetector(collector, DetectorConfig())
    anomalies = detector.evaluate(now=10.0)
    assert len(anomalies) == 1
    suspect = anomalies[0].suspects[0]
    assert (suspect.node, suspect.device) == (1, 1)
