"""C4D evaluation passes: a size ladder and a TP8 x DP layout.

The size ladder runs one evaluation pass at 64, 1,024 and 4,096 ranks.

One communicator of ``nodes x 8`` ranks runs one allreduce per 10 s step
with a persistent 2 s straggler rank and a NIC whose messages, in and
out, take 4x as long.  Message records follow the rail rings of a
multi-rail allreduce: worker ``(node, nic)`` sends to ``(node + 1, nic)``.
The collector keeps its default record-sized windows.

* ``CommSlowDetector``: the delay matrix built from the collector's
  message columns against ``build_delay_matrix_reference`` (per-pair
  ``np.median``) over the window's records, ``collector.messages(...)``.
* ``NonCommSlowDetector``: the collector's seq index against a collector
  whose per-operation queries scan the whole window.

Both variants of a detector must return the same anomalies before either
is timed; each size is one benchmark group.  Every ladder pass starts
from entries that keep no findings (:func:`forget`), so it analyses the
whole window, as a first pass does.

At 4,096 ranks the 4,096-record operation window holds a single
operation, so the non-communication-slow detector never reaches
``MIN_OPS_FOR_SLOW`` and returns nothing: the straggler goes undetected.
That is a known defect of record-sized windows (operation-count windows
would fix it).  The ladder reports it in ``extra_info["anomalies"]``
rather than hiding it, and a test pins that the detector counts the
miss as a ``too_few_ops`` skip in ``c4d_detector_skipped_total``.

The TP8 x DP rung is a job's many communicators: one tensor-parallel
communicator per node (its 8 GPUs) and one data-parallel communicator
per GPU index, 136 at 1,024 ranks and 520 at 4,096.  GPU 3 of node 5
straggles 2 s in ``tp5`` and ``dp3``; NIC 2 of node 9 is 4x slow in
``tp9`` and ``dp2``.  Each timed round feeds one more step (not timed)
and times one full master pass, so the pass finds one new operation per
communicator, as in steady state: the slow detectors reuse the wait-chain
finding of every operation a previous pass analysed, and redo the delay
matrix of each changed message window.  A reference master over its own
collector analyses every operation again on every pass with the numpy
wait chain (``analyze_wait_chain``) and builds every matrix with
``build_delay_matrix_reference``.  Both must report the same anomalies
pass by pass, and each fault must surface as one NODE verdict, fused
across its two communicators by ``C4DMaster._aggregate_by_node``.
"""

import random

import pytest

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import (
    CommunicatorRecord,
    MessageRecord,
    OpLaunchRecord,
    OpRecord,
)
from repro.core.c4d import detectors
from repro.core.c4d.delay_matrix import build_delay_matrix, build_delay_matrix_reference
from repro.core.c4d.detectors import CommSlowDetector, DetectorConfig, NonCommSlowDetector
from repro.core.c4d.events import AnomalyType, Suspect, SuspectKind
from repro.core.c4d.master import C4DMaster
from repro.core.c4d.wait_chain import analyze_wait_chain
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.collector import CentralCollector

GPUS = 8
NODES = (8, 128, 512)  # 64, 1,024 and 4,096 ranks
STEPS = 8
STEP_SECONDS = 10.0
BASE_DURATION = 0.02


class ScanningCollector(CentralCollector):
    """The non-comm detector's queries as linear scans over the window."""

    def ops_for_seq(self, comm_id, seq):
        return [r for r in self.ops(comm_id) if r.seq == seq]

    def latest_seqs(self, comm_id, count):
        return sorted({r.seq for r in self.ops(comm_id)})[-count:]


def fill(collector: CentralCollector, nodes: int, seed: int = 0) -> float:
    """Feed ``STEPS`` operations; returns the evaluation instant."""
    rng = random.Random(seed)
    ranks = nodes * GPUS
    straggler = rng.randrange(ranks)
    slow_node, slow_nic = rng.randrange(nodes), rng.randrange(GPUS)
    locations = tuple(RankLocation(rank // GPUS, rank % GPUS) for rank in range(ranks))
    collector.ingest_communicator(CommunicatorRecord("c", ranks, locations))
    for seq in range(STEPS):
        now = STEP_SECONDS * (seq + 1)
        launch = [now + rng.uniform(0.0, 0.02) for _ in range(ranks)]
        launch[straggler] += 2.0
        start = max(launch)
        end = start + 1.0
        for rank in range(ranks):
            where = locations[rank]
            collector.ingest_launch(
                OpLaunchRecord("c", seq, OpType.ALLREDUCE, rank, where, launch[rank])
            )
            collector.ingest_op(
                OpRecord(
                    "c", seq, OpType.ALLREDUCE, Algorithm.RING, "bf16", 2**28,
                    rank, where, launch[rank], start, end,
                )
            )
        for node in range(nodes):
            dst = (node + 1) % nodes
            for nic in range(GPUS):
                duration = BASE_DURATION * rng.uniform(0.95, 1.05)
                if nic == slow_nic and slow_node in (node, dst):
                    duration *= 4.0
                collector.ingest_message(
                    MessageRecord(
                        "c", seq, node, nic, dst, nic, "a", "b", 1, 1, 0,
                        1e9, start, start + duration,
                    )
                )
    return STEP_SECONDS * STEPS + 5.0


def forget(collector: CentralCollector) -> None:
    """Drop the findings the detectors kept, so a pass analyses everything."""
    for entry in collector.progress.values():
        entry.seq_findings.clear()
        entry.message_finding = None


@pytest.fixture(scope="module")
def collectors():
    built = {}
    for nodes in NODES:
        for cls in (CentralCollector, ScanningCollector):
            collector = cls(metrics=MetricsRegistry())
            built[nodes, cls] = (collector, fill(collector, nodes))
    return built


@pytest.mark.parametrize("nodes", NODES)
@pytest.mark.parametrize("build", ["columns", "reference"])
def test_comm_slow_pass(benchmark, monkeypatch, collectors, build, nodes):
    collector, now = collectors[nodes, CentralCollector]
    config = DetectorConfig()
    detector = CommSlowDetector(collector, config)
    since = now - config.slow_window
    variants = {
        "columns": build_delay_matrix,
        # Ignores the view it is handed and builds from the same
        # window's records (the ladder has one communicator).
        "reference": lambda _view: build_delay_matrix_reference(collector.messages("c", since)),
    }
    results = {}
    for name, fn in variants.items():
        monkeypatch.setattr(detectors, "build_delay_matrix", fn)
        forget(collector)
        results[name] = detector.evaluate(now)
    assert results["columns"] == results["reference"]
    assert results["columns"]  # the degraded NIC is found at every size
    monkeypatch.setattr(detectors, "build_delay_matrix", variants[build])
    benchmark.group = f"CommSlowDetector pass, {nodes * GPUS} ranks"
    benchmark.extra_info["anomalies"] = len(results[build])
    benchmark.pedantic(
        detector.evaluate, args=(now,), setup=lambda: forget(collector), rounds=5, iterations=1
    )


@pytest.mark.parametrize("nodes", NODES)
@pytest.mark.parametrize("index", ["seq_index", "scan"])
def test_noncomm_slow_pass(benchmark, collectors, index, nodes):
    results = {}
    for name, cls in (("seq_index", CentralCollector), ("scan", ScanningCollector)):
        collector, now = collectors[nodes, cls]
        forget(collector)
        results[name] = NonCommSlowDetector(collector, DetectorConfig()).evaluate(now)
    assert results["seq_index"] == results["scan"]
    cls = CentralCollector if index == "seq_index" else ScanningCollector
    collector, now = collectors[nodes, cls]
    detector = NonCommSlowDetector(collector, DetectorConfig())
    benchmark.group = f"NonCommSlowDetector pass, {nodes * GPUS} ranks"
    benchmark.extra_info["anomalies"] = len(results[index])
    benchmark.pedantic(
        detector.evaluate, args=(now,), setup=lambda: forget(collector), rounds=5, iterations=1
    )


def test_noncomm_slow_miss_at_4096_ranks_is_a_counted_skip(collectors):
    collector, now = collectors[NODES[-1], CentralCollector]
    registry = MetricsRegistry()
    assert NonCommSlowDetector(collector, DetectorConfig(), registry).evaluate(now) == []
    skipped = registry.counter("c4d_detector_skipped_total", labels=("detector", "reason"))
    assert skipped.labels(detector="noncomm_slow", reason="too_few_ops").value == 1


# -- TP8 x DP: many communicators, one pass per new step ----------------

TP_DP_NODES = (128, 512)  # 136 and 520 communicators: 1,024 and 4,096 ranks
#: Passes before timing; each timed round then adds one step.
WARM_STEPS = 4
TIMED_STEPS = 4
STRAGGLER = (5, 3)
SLOW_NIC = (9, 2)


def tp_dp_layout(nodes: int) -> dict[str, tuple[RankLocation, ...]]:
    """A TP communicator per node and a DP communicator per GPU index."""
    layout = {f"tp{n}": tuple(RankLocation(n, g) for g in range(GPUS)) for n in range(nodes)}
    for g in range(GPUS):
        layout[f"dp{g}"] = tuple(RankLocation(n, g) for n in range(nodes))
    return layout


def tp_dp_step(layout, seq: int, rng: random.Random) -> list:
    """One allreduce on every communicator, its messages on a ring."""
    now = STEP_SECONDS * (seq + 1)
    records = []
    for comm, ranks in layout.items():
        launch = [now + rng.uniform(0.0, 0.02) for _ in ranks]
        for rank, where in enumerate(ranks):
            if (where.node, where.gpu) == STRAGGLER:
                launch[rank] += 2.0
        start = max(launch)
        for rank, where in enumerate(ranks):
            records.append(OpLaunchRecord(comm, seq, OpType.ALLREDUCE, rank, where, launch[rank]))
            records.append(
                OpRecord(
                    comm, seq, OpType.ALLREDUCE, Algorithm.RING, "bf16", 2**28,
                    rank, where, launch[rank], start, start + 1.0,
                )
            )
        for rank, src in enumerate(ranks):
            dst = ranks[(rank + 1) % len(ranks)]
            duration = BASE_DURATION * rng.uniform(0.95, 1.05)
            if SLOW_NIC in ((src.node, src.gpu), (dst.node, dst.gpu)):
                duration *= 4.0
            records.append(
                MessageRecord(
                    comm, seq, src.node, src.gpu, dst.node, dst.gpu, "a", "b", 1, 1, 0,
                    1e9, start, start + duration,
                )
            )
    return records


class ReferenceCommSlow(CommSlowDetector):
    """Every window's matrix built again, per pair, on every pass."""

    def _outcome(self, comm_id, since, threshold):
        self.collector.progress[comm_id].message_finding = None
        build, detectors.build_delay_matrix = detectors.build_delay_matrix, (
            lambda _view: build_delay_matrix_reference(self.collector.messages(comm_id, since))
        )
        try:
            return super()._outcome(comm_id, since, threshold)
        finally:
            detectors.build_delay_matrix = build


class ReferenceNonCommSlow(NonCommSlowDetector):
    """Every operation analysed again, with numpy, on every pass."""

    def _wait_chain(self, comm_id, seq):
        records = self.collector.ops_for_seq(comm_id, seq)
        return analyze_wait_chain(records, min_lateness=self.config.wait_min_lateness)


class TpDpRun:
    """A fast master and a reference master, fed the same steps."""

    def __init__(self, nodes: int) -> None:
        self.layout = tp_dp_layout(nodes)
        self.rng = random.Random(nodes)
        self.seq = 0
        self.masters = []
        for detectors_from in (None, (ReferenceCommSlow, ReferenceNonCommSlow)):
            collector = CentralCollector(metrics=MetricsRegistry())
            master = C4DMaster(collector, DetectorConfig(), metrics=MetricsRegistry())
            if detectors_from:
                master.detectors[1:] = [cls(collector, master.config) for cls in detectors_from]
            for comm, ranks in self.layout.items():
                collector.ingest_communicator(CommunicatorRecord(comm, len(ranks), ranks))
            self.masters.append(master)
        #: The fast pass not yet checked: its instant and fresh anomalies.
        self.unchecked = None

    def feed(self) -> tuple:
        """Ingest the next step into both collectors; ``((instant,), {})``."""
        records = tp_dp_step(self.layout, self.seq, self.rng)
        self.seq += 1
        for master in self.masters:
            ingest = {
                OpLaunchRecord: master.collector.ingest_launch,
                OpRecord: master.collector.ingest_op,
                MessageRecord: master.collector.ingest_message,
            }
            for record in records:
                ingest[type(record)](record)
        return (STEP_SECONDS * self.seq + 5.0,), {}

    def fast_pass(self, now: float) -> None:
        self.unchecked = now, self.masters[0].evaluate(now)

    def check(self) -> None:
        """The reference pass at the last fast pass's instant must agree."""
        if self.unchecked is None:
            return
        (now, fresh), self.unchecked = self.unchecked, None

        def described(anomalies):
            return [(a.anomaly_type, a.comm_id, a.suspects, a.evidence) for a in anomalies]

        assert described(fresh) == described(self.masters[1].evaluate(now))


@pytest.mark.parametrize("nodes", TP_DP_NODES)
def test_tp_dp_pass(benchmark, nodes):
    run = TpDpRun(nodes)
    for _ in range(WARM_STEPS):
        args, _kwargs = run.feed()
        run.fast_pass(*args)
        run.check()

    def next_step():
        run.check()  # the previous timed pass, untimed
        return run.feed()

    benchmark.group = f"C4DMaster pass, TP8 x DP, {nodes * GPUS} ranks"
    benchmark.extra_info["communicators"] = len(run.layout)
    benchmark.pedantic(run.fast_pass, setup=next_step, rounds=TIMED_STEPS, iterations=1)
    run.check()
    verdicts = {(a.anomaly_type, a.comm_id, a.suspects) for a in run.masters[0].anomalies}
    assert len(run.masters[0].anomalies) == len(verdicts) == 2
    assert verdicts == {
        (AnomalyType.NONCOMM_SLOW, "<multiple>", (Suspect(SuspectKind.NODE, node=STRAGGLER[0]),)),
        (AnomalyType.COMM_SLOW, "<multiple>", (Suspect(SuspectKind.NODE, node=SLOW_NIC[0]),)),
    }
