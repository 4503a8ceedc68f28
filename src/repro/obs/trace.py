"""Fault-lifecycle tracing: one span per fault, end to end.

The chaos harness injects faults with known ground truth; the pipeline
reacts through detection, steering and recovery.  :class:`FaultTracer`
stitches both sides into per-fault timelines — ordered stages

    inject → first_record → detect → steer → recover

— and keeps the aggregate accounting the paper's operability story needs:

* **MTTD** (mean time to detect): ``detect - inject``, per fault;
* **MTTR** (mean time to recover): ``recover - inject``, per fault;
* **false positives**: detections matching no injected fault active at
  detection time (stretched by a grace window, mirroring the chaos
  scorecard's convention).

Stages are first-occurrence-wins: a re-detection of the same fault does
not move its timeline.  All times are simulated seconds on the run's
clock.  Components report what they see (``detection``/``action`` with
suspect nodes); the tracer owns the matching against registered ground
truth, so the pipeline under test never touches ground truth itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs.metrics import MetricsRegistry, get_registry

#: Canonical stage order of one fault's lifecycle.
STAGES = ("inject", "first_record", "detect", "steer", "recover")

#: Seconds past a fault window's end during which a detection still
#: counts as true.  Debounce, evaluation cadence and telemetry latency
#: all sit between fault onset and action; a flapping window can close
#: in the meantime without making the (correct) detection a ghost.
DEFAULT_GRACE = 240.0

#: MTTD/MTTR bucket bounds: detection is expected within tens of
#: seconds, recovery within minutes (Table III's accounting).
LATENCY_BUCKETS = (5.0, 10.0, 20.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1200.0, float("inf"))


@dataclass
class FaultSpan:
    """One injected fault's lifecycle timeline."""

    fault_id: str
    kind: str
    #: Victim identity: node ids for compute faults, link-id strings for
    #: fabric faults.
    victims: tuple = ()
    #: (start, end) activity windows; end is inf for permanent faults.
    windows: tuple[tuple[float, float], ...] = ()
    #: First time each stage was observed.
    stages: dict[str, float] = field(default_factory=dict)
    #: Free-form per-stage annotations (detector type, action size, ...).
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def injected_at(self) -> Optional[float]:
        """Injection time (None before the span is opened)."""
        return self.stages.get("inject")

    @property
    def detected(self) -> bool:
        """True once the pipeline produced a matching verdict."""
        return "detect" in self.stages

    @property
    def mttd(self) -> Optional[float]:
        """Inject → detect, or None while undetected."""
        if "inject" in self.stages and "detect" in self.stages:
            return self.stages["detect"] - self.stages["inject"]
        return None

    @property
    def mttr(self) -> Optional[float]:
        """Inject → recovery complete, or None while unrecovered."""
        if "inject" in self.stages and "recover" in self.stages:
            return self.stages["recover"] - self.stages["inject"]
        return None

    def active_at(self, now: float, grace: float = 0.0) -> bool:
        """True while any activity window (plus grace) covers ``now``."""
        if not self.windows:
            injected = self.injected_at
            return injected is not None and now >= injected
        return any(start <= now <= end + grace for start, end in self.windows)

    def timeline(self) -> list[tuple[str, float]]:
        """Observed stages in canonical order."""
        return [(s, self.stages[s]) for s in STAGES if s in self.stages]

    def to_dict(self) -> dict:
        """JSON-safe span dump."""
        return {
            "fault_id": self.fault_id,
            "kind": self.kind,
            "victims": [str(v) for v in self.victims],
            "windows": [
                [start, None if end == float("inf") else end]
                for start, end in self.windows
            ],
            "stages": {s: t for s, t in self.timeline()},
            "detected": self.detected,
            "mttd_seconds": self.mttd,
            "mttr_seconds": self.mttr,
            "attrs": {k: _jsonable_attr(v) for k, v in self.attrs.items()},
        }


@dataclass(frozen=True)
class FalsePositive:
    """A detection that matched no injected fault."""

    time: float
    victims: tuple
    kind: str


class FaultTracer:
    """Collects fault spans and derives MTTD/MTTR accounting.

    Parameters
    ----------
    metrics:
        Registry receiving the ``obs_fault_*`` series (MTTD/MTTR
        histograms, false-positive counter); ``None`` uses the
        process-wide default registry.
    grace:
        Seconds past a fault window's end during which a detection still
        matches it.
    """

    def __init__(
        self, metrics: Optional[MetricsRegistry] = None, grace: float = DEFAULT_GRACE
    ) -> None:
        registry = get_registry(metrics)
        self.grace = grace
        self.spans: dict[str, FaultSpan] = {}
        self.false_positives: list[FalsePositive] = []
        self._m_stage = registry.counter(
            "obs_fault_stage_total", "Fault lifecycle stage transitions", labels=("stage",)
        )
        self._m_mttd = registry.histogram(
            "obs_fault_mttd_seconds", "Inject to detector verdict", buckets=LATENCY_BUCKETS
        )
        self._m_mttr = registry.histogram(
            "obs_fault_mttr_seconds", "Inject to recovery complete", buckets=LATENCY_BUCKETS
        )
        self._m_false = registry.counter(
            "obs_false_positives_total", "Detections matching no injected fault"
        )

    # ------------------------------------------------------------------
    # Ground truth side (the chaos runner)
    # ------------------------------------------------------------------
    def register_fault(
        self,
        fault_id: str,
        kind: str,
        victims: Sequence = (),
        injected_at: float = 0.0,
        windows: Optional[Sequence[tuple[float, float]]] = None,
    ) -> FaultSpan:
        """Open a span for one injected fault (idempotent per id)."""
        span = self.spans.get(fault_id)
        if span is None:
            span = FaultSpan(
                fault_id=fault_id,
                kind=kind,
                victims=tuple(victims),
                windows=tuple(tuple(w) for w in windows) if windows else (),
            )
            self.spans[fault_id] = span
            self.stage(fault_id, "inject", injected_at)
        return span

    def stage(self, fault_id: str, stage: str, t: float, **attrs) -> None:
        """Record a stage (first occurrence wins) on one span."""
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
        span = self.spans.get(fault_id)
        if span is None:
            raise KeyError(f"no fault span {fault_id!r}; register_fault first")
        if stage in span.stages:
            return
        span.stages[stage] = t
        span.attrs.update(attrs)
        self._m_stage.labels(stage=stage).inc()
        if stage == "detect" and span.mttd is not None:
            self._m_mttd.observe(span.mttd)
        if stage == "recover" and span.mttr is not None:
            self._m_mttr.observe(span.mttr)

    # ------------------------------------------------------------------
    # Pipeline side (what the system under test observed)
    # ------------------------------------------------------------------
    def _matching(self, now: float, victims: set) -> list[FaultSpan]:
        return [
            span
            for span in self.spans.values()
            if span.active_at(now, grace=self.grace) and victims.intersection(span.victims)
        ]

    def observe_symptom(self, now: float, victim) -> None:
        """First anomalous record attributable to ``victim`` (telemetry side)."""
        for span in self._matching(now, {victim}):
            self.stage(span.fault_id, "first_record", now)

    def detection(self, now: float, victims: Sequence, kind: str = "") -> tuple[str, ...]:
        """A detector verdict naming ``victims``; returns matched fault ids.

        A verdict matching no registered fault active at ``now`` is a
        false positive.
        """
        matched = self._matching(now, set(victims))
        if not matched:
            self.false_positives.append(
                FalsePositive(time=now, victims=tuple(victims), kind=kind)
            )
            self._m_false.inc()
            return ()
        for span in matched:
            self.stage(span.fault_id, "detect", now, detector=kind)
        return tuple(span.fault_id for span in matched)

    def action(
        self, now: float, victims: Sequence, ready_at: Optional[float] = None
    ) -> tuple[str, ...]:
        """A steering/reroute action on ``victims``; returns matched fault ids.

        ``now`` stamps the ``steer`` stage; ``ready_at`` (when given) the
        ``recover`` stage — the simulated moment the job/fabric is whole
        again.
        """
        matched = self._matching(now, set(victims))
        for span in matched:
            self.stage(span.fault_id, "steer", now)
            if ready_at is not None:
                self.stage(span.fault_id, "recover", ready_at)
        return tuple(span.fault_id for span in matched)

    def absorb(self, other: "FaultTracer") -> None:
        """Merge another tracer's spans and false positives into this one.

        Campaigns give every scenario its own tracer — each scenario has
        its own simulated clock and reuses node ids, so victim matching
        must never cross scenarios — and fold the finished tracers into
        one campaign-wide view here.  Metric series are NOT re-emitted:
        when both tracers share a registry the stages were already
        counted once, at observation time.
        """
        for fault_id, span in other.spans.items():
            if fault_id in self.spans:
                raise ValueError(f"duplicate fault span {fault_id!r} on absorb")
            self.spans[fault_id] = span
        self.false_positives.extend(other.false_positives)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def mttd_values(self) -> list[float]:
        """Every detected fault's inject→detect latency."""
        return [s.mttd for s in self.spans.values() if s.mttd is not None]

    def mttr_values(self) -> list[float]:
        """Every recovered fault's inject→recover latency."""
        return [s.mttr for s in self.spans.values() if s.mttr is not None]

    def accounting(self) -> dict:
        """Aggregate MTTD/MTTR/false-positive summary (JSON-safe)."""
        spans = list(self.spans.values())
        return {
            "faults": len(spans),
            "detected": sum(1 for s in spans if s.detected),
            "missed": sum(1 for s in spans if not s.detected),
            "recovered": sum(1 for s in spans if "recover" in s.stages),
            "false_positives": len(self.false_positives),
            "mttd": latency_histogram(self.mttd_values()),
            "mttr": latency_histogram(self.mttr_values()),
        }


def latency_histogram(
    values: Sequence[float], bounds: Sequence[float] = LATENCY_BUCKETS
) -> dict:
    """Summary + cumulative buckets of a latency sample set (JSON-safe)."""
    ordered = sorted(values)
    buckets: dict[str, int] = {}
    for bound in bounds:
        key = "+Inf" if bound == float("inf") else format(bound, "g")
        buckets[key] = sum(1 for v in ordered if v <= bound)
    if not ordered:
        return {"count": 0, "buckets": buckets}

    def pct(q: float) -> float:
        return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]

    return {
        "count": len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
        "p50": pct(0.5),
        "p90": pct(0.9),
        "p99": pct(0.99),
        "buckets": buckets,
    }


def _jsonable_attr(value):
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)
