"""The C4D master: periodic evaluation, dedup, steering and RCA hand-off.

Wires the detectors over the central collector (Fig. 5's architecture):
``evaluate(now)`` runs all detectors, suppresses repeats of anomalies it
has already acted on, forwards fresh ones to the steering service
(isolate + restart) and to the offline root-cause analyzer.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.codec import canonical_pairs
from repro.core.c4d.detectors import (
    CommSlowDetector,
    DetectorConfig,
    HangDetector,
    NonCommSlowDetector,
)
from repro.core.c4d.events import Anomaly, AnomalyType, Suspect, SuspectKind
from repro.core.c4d.rca import RootCauseAnalyzer
from repro.core.c4d.steering import JobSteeringService, SteeringAction
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.telemetry.collector import CentralCollector

#: Identity of a verdict for cooldown and debounce: (type, communicator,
#: suspects).
_VerdictKey = tuple[AnomalyType, str, tuple[Suspect, ...]]


class C4DMaster:
    """Central anomaly-detection master for one job.

    Parameters
    ----------
    collector:
        The telemetry store fed by the C4 agents.
    config:
        Detector thresholds.
    steering:
        Optional steering service; when present, fresh anomalies trigger
        isolate-and-restart automatically.
    rca:
        Optional offline analyzer receiving every fresh anomaly.

    Two robustness gates (configured via :class:`DetectorConfig`) sit in
    front of reporting:

    * **debounce** — an anomaly must be observed in
      ``debounce_evaluations`` *consecutive* evaluations before it
      passes.  Late telemetry produces one-evaluation ghosts (a launch
      record in flight looks like a missing rank); genuine faults
      persist.
    * **node-action hysteresis** — after steering acts on a node,
      anomalies implicating it are suppressed for
      ``node_action_cooldown`` seconds, so a flapping fault cannot
      drive repeated isolations of the same episode.
    """

    #: Seconds during which an identical (type, comm, suspects) anomaly
    #: is not re-reported — detection is continuous, action is not.
    COOLDOWN = 300.0
    #: Below this telemetry coverage fraction the master is in degraded
    #: mode: verdicts are recorded with scaled-down confidence but not
    #: acted on (a blackout must cost detection latency, not a
    #: false-isolation storm).
    DEGRADED_COVERAGE_THRESHOLD = 0.6

    def __init__(
        self,
        collector: CentralCollector,
        config: Optional[DetectorConfig] = None,
        steering: Optional[JobSteeringService] = None,
        rca: Optional[RootCauseAnalyzer] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        self.collector = collector
        self.config = config or DetectorConfig()
        self.steering = steering
        self.rca = rca
        #: Fencing epoch stamped onto steering dispatches; bumped by the
        #: control plane on every recovery/failover.
        self.epoch = 0
        #: Optional :class:`~repro.obs.trace.FaultTracer`; fresh
        #: anomalies and steering actions are reported to it so fault
        #: spans get their ``detect``/``steer``/``recover`` stages.
        self.tracer = tracer
        self.detectors = [
            HangDetector(collector, self.config),
            CommSlowDetector(collector, self.config, metrics),
            NonCommSlowDetector(collector, self.config, metrics),
        ]
        self.anomalies: list[Anomaly] = []
        self.actions: list[SteeringAction] = []
        #: Verdicts withheld because the master was in degraded mode.
        self.degraded_anomalies: list[Anomaly] = []
        self._last_reported: dict[_VerdictKey, float] = {}
        #: Debounce state: anomaly key -> (consecutive count, eval index
        #: of the last sighting).
        self._pending: dict[_VerdictKey, tuple[int, int]] = {}
        self._eval_index = 0
        #: Node -> time of the last steering action implicating it.
        self._node_last_action: dict[int, float] = {}
        registry = get_registry(metrics)
        self._m_evals = registry.counter(
            "c4d_evaluations_total", "Master evaluation passes"
        )
        self._m_eval_seconds = registry.histogram(
            "c4d_detector_eval_seconds",
            "Wall-clock time of one detector's evaluate()",
            labels=("detector",),
        )
        self._m_verdicts = registry.counter(
            "c4d_detector_verdicts_total",
            "Raw anomalies emitted by detectors (before gates)",
            labels=("detector",),
        )
        suppressed = registry.counter(
            "c4d_suppressions_total",
            "Anomalies swallowed by a robustness gate",
            labels=("gate",),
        )
        self._m_suppressed = {
            gate: suppressed.labels(gate=gate)
            for gate in ("debounce", "cooldown", "node_cooldown", "degraded")
        }
        self._m_anomalies = registry.counter(
            "c4d_anomalies_total", "Fresh anomalies acted on", labels=("type",)
        )
        self._m_actions = registry.counter(
            "c4d_steering_dispatch_total", "Anomalies handed to the steering service"
        )

    def _debounced(self, key: tuple) -> bool:
        """Count a sighting; True once it persisted long enough."""
        required = self.config.debounce_evaluations
        if required <= 1:
            return True
        count, last_eval = self._pending.get(key, (0, -2))
        count = count + 1 if last_eval == self._eval_index - 1 else 1
        self._pending[key] = (count, self._eval_index)
        return count >= required

    def _node_in_cooldown(self, anomaly: Anomaly, now: float) -> bool:
        """Hysteresis: every implicated node was recently acted on."""
        if self.config.node_action_cooldown <= 0:
            return False
        nodes = anomaly.suspect_nodes
        if not nodes:
            return False
        return all(
            now - self._node_last_action.get(node, float("-inf"))
            < self.config.node_action_cooldown
            for node in nodes
        )

    def evaluate(
        self,
        now: float,
        coverage: Optional[float] = None,
        blind_nodes=None,
    ) -> list[Anomaly]:
        """Run all detectors; act on and return fresh anomalies.

        ``coverage`` (fraction of registered agents with live leases)
        and ``blind_nodes`` (nodes whose leases expired) put the master
        in degraded mode: when coverage drops below
        ``DEGRADED_COVERAGE_THRESHOLD``, or every suspect of a verdict
        is a blind node, the verdict is recorded in
        ``degraded_anomalies`` with its confidence scaled to the
        coverage but never dispatched to steering — silence from dead
        agents is indistinguishable from a hang, and acting on it would
        be a false-isolation storm.
        """
        self._eval_index += 1
        self._m_evals.inc()
        fresh: list[Anomaly] = []
        for detector in self.detectors:
            # Stub/custom detectors need not declare a metric label name.
            label = getattr(detector, "name", type(detector).__name__)
            # Wall clock is observability-only here: it times the
            # detector's own compute for the eval-latency histogram and
            # never feeds simulated time or verdict logic.
            started = time.perf_counter()  # repro: noqa[SIM001]
            verdicts = detector.evaluate(now)
            self._m_eval_seconds.labels(detector=label).observe(
                time.perf_counter() - started  # repro: noqa[SIM001]
            )
            if verdicts:
                self._m_verdicts.labels(detector=label).inc(len(verdicts))
            for anomaly in verdicts:
                key = (anomaly.anomaly_type, anomaly.comm_id, anomaly.suspects)
                if not self._debounced(key):
                    self._m_suppressed["debounce"].inc()
                    continue
                last = self._last_reported.get(key)
                if last is not None and now - last < self.COOLDOWN:
                    self._m_suppressed["cooldown"].inc()
                    continue
                self._last_reported[key] = now
                fresh.append(anomaly)
        fresh = self._aggregate_by_node(fresh, now)
        gated = [a for a in fresh if not self._node_in_cooldown(a, now)]
        self._m_suppressed["node_cooldown"].inc(len(fresh) - len(gated))
        fresh = gated
        if coverage is not None or blind_nodes:
            blind = set(blind_nodes or ())
            low_coverage = (
                coverage is not None and coverage < self.DEGRADED_COVERAGE_THRESHOLD
            )
            confident: list[Anomaly] = []
            for anomaly in fresh:
                nodes = anomaly.suspect_nodes
                all_blind = bool(nodes) and bool(blind) and all(
                    node in blind for node in nodes
                )
                if low_coverage or all_blind:
                    # evidence is compare/hash-excluded, so annotating
                    # in place is safe on the frozen dataclass.
                    anomaly.evidence["confidence"] = (
                        coverage if coverage is not None else 0.0
                    )
                    anomaly.evidence["degraded"] = True
                    self.degraded_anomalies.append(anomaly)
                    self._m_suppressed["degraded"].inc()
                    continue
                confident.append(anomaly)
            fresh = confident
        for anomaly in fresh:
            self.anomalies.append(anomaly)
            self._m_anomalies.labels(type=anomaly.anomaly_type.value).inc()
            if self.tracer is not None:
                self.tracer.detection(
                    now, anomaly.suspect_nodes, kind=anomaly.anomaly_type.value
                )
            if self.rca is not None:
                self.rca.submit(anomaly)
            if self.steering is not None and anomaly.anomaly_type in (
                AnomalyType.COMM_HANG,
                AnomalyType.NONCOMM_HANG,
                AnomalyType.COMM_SLOW,
                AnomalyType.NONCOMM_SLOW,
            ):
                for node in anomaly.suspect_nodes:
                    self._node_last_action[node] = now
                self._m_actions.inc()
                action = self.steering.handle(anomaly, now, epoch=self.epoch)
                if action is None:
                    # Duplicate verdict (same fault key inside the
                    # dedup window) — already executed, nothing to do.
                    continue
                self.actions.append(action)
                if self.tracer is not None:
                    targets = set(action.isolated_nodes) | set(anomaly.suspect_nodes)
                    self.tracer.action(now, tuple(targets), ready_at=action.ready_at)
        return fresh

    @staticmethod
    def _aggregate_by_node(fresh: list[Anomaly], now: float) -> list[Anomaly]:
        """Fuse same-type anomalies implicating one node across comms.

        A faulty node hosts ranks of many communicators (e.g. one per DP
        group), so a single hardware problem surfaces as several
        per-communicator anomalies in the same evaluation.  The master
        holds the cluster-wide view, so it promotes such clusters to one
        NODE-scoped anomaly — the unit the steering service acts on.
        """
        groups: dict[tuple, list[Anomaly]] = {}
        passthrough: list[Anomaly] = []
        for anomaly in fresh:
            nodes = anomaly.suspect_nodes
            if len(nodes) == 1:
                groups.setdefault((anomaly.anomaly_type, nodes[0]), []).append(anomaly)
            else:
                passthrough.append(anomaly)
        result = list(passthrough)
        for (anomaly_type, node), members in groups.items():
            if len(members) < 2:
                result.extend(members)
                continue
            result.append(
                Anomaly(
                    anomaly_type=anomaly_type,
                    comm_id="<multiple>",
                    detected_at=now,
                    suspects=(Suspect(kind=SuspectKind.NODE, node=node),),
                    evidence={
                        "comm_ids": tuple(m.comm_id for m in members),
                        "member_suspects": tuple(
                            str(s) for m in members for s in m.suspects
                        ),
                    },
                )
            )
        return result

    # ------------------------------------------------------------------
    # Snapshot / restore (control-plane journaling)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Detached snapshot of the master's mutable detection state.

        The fencing ``epoch`` is deliberately excluded: it identifies
        *which incarnation* holds the state, not the state itself, so a
        recovered master with a bumped epoch still digests identically.
        """
        return {
            "anomalies": tuple(self.anomalies),
            "actions": tuple(self.actions),
            "degraded_anomalies": tuple(self.degraded_anomalies),
            "last_reported": canonical_pairs(self._last_reported),
            "pending": canonical_pairs(self._pending),
            "eval_index": self._eval_index,
            "node_last_action": sorted(self._node_last_action.items()),
            "detectors": {
                detector.name: detector.snapshot_state()
                for detector in self.detectors
                if hasattr(detector, "snapshot_state")
            },
        }

    def restore_state(self, state: dict) -> None:
        """Replace mutable state with a :meth:`snapshot_state` dict."""
        self.anomalies = list(state["anomalies"])
        self.actions = list(state["actions"])
        self.degraded_anomalies = list(state["degraded_anomalies"])
        self._last_reported = dict(state["last_reported"])
        self._pending = dict(state["pending"])
        self._eval_index = state["eval_index"]
        self._node_last_action = {node: t for node, t in state["node_last_action"]}
        for detector in self.detectors:
            snapshot = state["detectors"].get(getattr(detector, "name", ""))
            if snapshot is not None and hasattr(detector, "restore_state"):
                detector.restore_state(snapshot)
