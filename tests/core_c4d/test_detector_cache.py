"""The wait-chain findings kept per entry against passes that redo everything.

A master whose non-comm-slow detector reuses the wait-chain findings the
collector entry kept must report the same anomalies, and reach the same
state digest, as a master that analyses every operation again on every
pass with the numpy wait chain.  The collectors keep small windows, so
records are evicted; the feed repeats records (a lossy channel's
duplicates), sends late records into seqs that were already analysed,
restores the collector from its snapshot, and moves the evaluation
clock forwards and back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import CommunicatorRecord, MessageRecord, OpLaunchRecord, OpRecord
from repro.controlplane.journal import state_digest
from repro.core.c4d.detectors import DetectorConfig, NonCommSlowDetector
from repro.core.c4d.master import C4DMaster
from repro.core.c4d.wait_chain import analyze_wait_chain
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.collector import CentralCollector


class SmallWindows(CentralCollector):
    """Windows that hold one or two operations of a communicator."""

    OP_WINDOW = 10
    MESSAGE_WINDOW = 12


class Logged:
    """Keeps each pass's raw verdicts, before the master's gates."""

    def evaluate(self, now):
        verdicts = super().evaluate(now)
        self.passes.append(
            [(a.anomaly_type, a.comm_id, a.suspects, a.evidence) for a in verdicts]
        )
        return verdicts


class CachedNonCommSlow(Logged, NonCommSlowDetector):
    pass


class UncachedNonCommSlow(Logged, NonCommSlowDetector):
    def _wait_chain(self, comm_id, seq):
        records = self.collector.ops_for_seq(comm_id, seq)
        return analyze_wait_chain(records, min_lateness=self.config.wait_min_lateness)


#: Communicator -> its ranks' (node, gpu), two GPUs per node.
COMMS = {
    "a": tuple(RankLocation(rank // 2, rank % 2) for rank in range(6)),
    "b": tuple(RankLocation(rank // 2, rank % 2) for rank in range(4)),
}
OFFSETS = (0.0, 0.0, 0.01, 0.02, 0.5, 2.0)
#: Ratios 1.05 and 1.5 sit between the hysteresis and slow thresholds.
DURATIONS = (0.02, 0.021, 0.03, 0.08)
#: Evaluation clock steps; a step back is allowed by the detector API.
NOW_STEPS = (-5.0, 0.0, 1.0, 5.0, 10.0, 30.0, 70.0)


def ingest(collector: CentralCollector, records) -> None:
    kinds = {OpLaunchRecord: "launch", OpRecord: "op", MessageRecord: "message"}
    for record in records:
        getattr(collector, f"ingest_{kinds[type(record)]}")(record)


def op_records(comm, seq, offsets):
    ranks = COMMS[comm]
    launches = [10.0 * seq + offsets[rank % len(offsets)] for rank in range(len(ranks))]
    start = max(launches)
    for rank, where in enumerate(ranks):
        yield OpLaunchRecord(comm, seq, OpType.ALLREDUCE, rank, where, launches[rank])
        yield OpRecord(
            comm, seq, OpType.ALLREDUCE, Algorithm.RING, "bf16", 1, rank, where,
            launches[rank], start, start + 1.0,
        )


def message_records(comm, seq, durations):
    ranks = COMMS[comm]
    start = 10.0 * seq + 2.0
    for rank, src in enumerate(ranks):
        dst = ranks[(rank + 1) % len(ranks)]
        duration = durations[rank % len(durations)]
        yield MessageRecord(
            comm, seq, src.node, src.gpu, dst.node, dst.gpu, "a", "b", 1, 1, 0,
            1e9, start, start + duration,
        )


comm_names = st.sampled_from(sorted(COMMS))
seqs = st.integers(min_value=0, max_value=6)
events = st.one_of(
    st.tuples(st.just("ops"), comm_names, seqs, st.lists(st.sampled_from(OFFSETS), min_size=1)),
    st.tuples(
        st.just("messages"), comm_names, seqs, st.lists(st.sampled_from(DURATIONS), min_size=1)
    ),
    st.tuples(st.just("late"), comm_names, seqs, st.sampled_from(OFFSETS)),
    st.tuples(st.just("duplicate"), st.integers(min_value=0, max_value=200)),
    # Twice, so passes often follow each other with no record between.
    st.tuples(st.just("evaluate"), st.sampled_from(NOW_STEPS)),
    st.tuples(st.just("evaluate"), st.sampled_from(NOW_STEPS)),
    st.tuples(st.just("restore")),
)
configs = st.builds(
    DetectorConfig,
    slow_window=st.sampled_from([15.0, 60.0]),
    wait_min_lateness=st.sampled_from([0.0, 0.05]),
    slow_hysteresis=st.sampled_from([1.0, 0.6]),
)


class Side:
    """A collector and its master; ``uncached`` redoes every wait chain."""

    def __init__(self, config: DetectorConfig, uncached: bool) -> None:
        self.config = config
        self.collector = SmallWindows(metrics=MetricsRegistry())
        self.registry = MetricsRegistry()
        self.master = C4DMaster(self.collector, config, metrics=self.registry)
        cls = UncachedNonCommSlow if uncached else CachedNonCommSlow
        self.noncomm_slow = cls(self.collector, config, self.registry)
        self.noncomm_slow.passes = []
        self.master.detectors[2] = self.noncomm_slow
        for comm, ranks in COMMS.items():
            self.collector.ingest_communicator(CommunicatorRecord(comm, len(ranks), ranks))

    def evaluate(self, now: float) -> tuple:
        """This pass's fresh anomalies, raw wait-chain verdicts and skip counts."""
        fresh = [
            (a.anomaly_type, a.comm_id, a.suspects, a.detected_at, a.evidence)
            for a in self.master.evaluate(now)
        ]
        skipped = self.registry.counter("c4d_detector_skipped_total", labels=("detector", "reason"))
        skips = sorted((tuple(labels.items()), child.value) for labels, child in skipped.series())
        return fresh, self.noncomm_slow.passes[-1], skips

    def restore(self) -> None:
        self.collector.restore_state(self.collector.snapshot_state())

    def digest(self) -> str:
        return state_digest(
            {"collector": self.collector.snapshot_state(), "master": self.master.snapshot_state()}
        )

    def assert_findings_current(self) -> None:
        """Every kept wait-chain finding is what its seq's records give now."""
        for comm_id, entry in self.collector.progress.items():
            for seq, finding in entry.seq_findings.items():
                records = self.collector.ops_for_seq(comm_id, seq)
                assert finding == analyze_wait_chain(records, self.config.wait_min_lateness)


@given(configs, st.lists(events, min_size=5, max_size=50))
@settings(max_examples=200, deadline=None)
def test_cached_passes_match_uncached_reference(config, feed):
    cached, reference = Side(config, uncached=False), Side(config, uncached=True)
    sent = []
    now = 0.0
    for event in feed:
        kind = event[0]
        if kind == "evaluate":
            now += event[1]
            assert cached.evaluate(now) == reference.evaluate(now)
            assert cached.digest() == reference.digest()
            continue
        if kind == "restore":
            cached.restore()
            reference.restore()
            entries = cached.collector.progress.values()
            assert all(not e.seq_findings for e in entries)
            continue
        if kind == "ops":
            records = list(op_records(*event[1:]))
        elif kind == "messages":
            records = list(message_records(*event[1:]))
        elif kind == "late":
            # One rank's record, again, for a seq that may be analysed.
            records = list(op_records(event[1], event[2], [event[3]]))[:2]
        else:
            records = [sent[event[1] % len(sent)]] if sent else []
        ingest(cached.collector, records)
        ingest(reference.collector, records)
        sent.extend(records)
        cached.assert_findings_current()
    now += 1.0
    assert cached.evaluate(now) == reference.evaluate(now)
    assert cached.digest() == reference.digest()


STRAGGLER = (0.0, 0.0, 0.01, 2.0)


def straggling_collector(ops: int) -> CentralCollector:
    collector = CentralCollector(metrics=MetricsRegistry())
    collector.ingest_communicator(CommunicatorRecord("a", len(COMMS["a"]), COMMS["a"]))
    for seq in range(ops):
        ingest(collector, op_records("a", seq, STRAGGLER))
    return collector


def test_each_operation_is_analysed_once(monkeypatch):
    from repro.core.c4d import detectors

    analysed = []
    original = detectors.find_stragglers

    def counting(records, min_lateness):
        analysed.append(records[0].seq)
        return original(records, min_lateness)

    monkeypatch.setattr(detectors, "find_stragglers", counting)
    collector = straggling_collector(2)
    detector = NonCommSlowDetector(collector, DetectorConfig())
    assert detector.evaluate(25.0)
    ingest(collector, op_records("a", 2, STRAGGLER))
    assert detector.evaluate(35.0)
    assert detector.evaluate(36.0)
    assert analysed == [0, 1, 2]
    # A late record changes seq 2's bucket: only seq 2 is analysed again.
    ingest(collector, list(op_records("a", 2, (0.0,)))[1:2])
    detector.evaluate(37.0)
    assert analysed == [0, 1, 2, 2]


def test_findings_stay_out_of_the_snapshot():
    collector = straggling_collector(3)
    before = state_digest(collector.snapshot_state())
    NonCommSlowDetector(collector, DetectorConfig()).evaluate(35.0)
    assert collector.progress["a"].seq_findings
    assert state_digest(collector.snapshot_state()) == before
