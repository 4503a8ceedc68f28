"""The four syndrome detectors, reading the central collector.

Each detector implements ``evaluate(now) -> list[Anomaly]``; the C4D
master runs them periodically.  Detectors are pure consumers of
monitoring records — they never look at simulator ground truth, so their
localization accuracy in tests measures the real pipeline.

The non-communication-slow detector keeps each seq's wait-chain finding
on the communicator's collector entry (``CommProgress.seq_findings``),
which drops it when a record joins or leaves the seq's op bucket, so an
operation is analysed once per state of its records.  The comm-slow
pass keeps nothing: it runs from the message window to the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.c4d.delay_matrix import (
    SLOW_THRESHOLD,
    MatrixFinding,
    analyze_delay_matrix,
    build_delay_matrix,
)
from repro.core.c4d.events import Anomaly, AnomalyType, Suspect, SuspectKind
from repro.core.c4d.wait_chain import (
    WaitChainFinding,
    analyze_wait_chain_smoothed,
    find_stragglers,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.telemetry.collector import CentralCollector

#: Minimum completed operations inside the window before slow analysis
#: runs (avoids judging from a cold start).
MIN_OPS_FOR_SLOW = 2


def _skip_counters(
    metrics: Optional[MetricsRegistry], detector: str, reasons: tuple[str, ...]
) -> dict:
    """``reason -> counter`` of communicators a detector's passes skipped."""
    skipped = get_registry(metrics).counter(
        "c4d_detector_skipped_total",
        "Communicators a detector pass skipped for lack of evidence",
        labels=("detector", "reason"),
    )
    return {reason: skipped.labels(detector=detector, reason=reason) for reason in reasons}


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds shared by the detectors.

    Attributes
    ----------
    hang_timeout:
        Seconds without collective progress before a hang is declared.
        The paper contrasts its tens-of-seconds reaction with PyTorch's
        up-to-30-minute elastic-agent timeout.
    slow_window:
        Seconds of transport records analyzed per communication-slow
        evaluation.
    wait_min_lateness:
        Absolute straggler lateness floor in seconds.
    smooth_window_ops:
        When > 0, the non-communication-slow detector averages per-rank
        lateness over this many recent operations instead of requiring a
        persistent per-operation straggler.  This is the paper's §V
        mitigation for expert-parallel load imbalance: random variation
        averages out, systemic slowness does not.
    debounce_evaluations:
        Consecutive master evaluations an identical anomaly must survive
        before it is reported/acted on.  1 (default) acts immediately;
        higher values filter transients caused by late telemetry — a
        record delayed past one evaluation arrives before the next, the
        suspect set changes, and the debounce counter resets.
    node_action_cooldown:
        Hysteresis on steering: after the master acts on a node, further
        anomalies implicating that node are suppressed for this many
        seconds.  Prevents isolation storms when a flapping fault keeps
        re-crossing the detection threshold.
    slow_hysteresis:
        Communication-slow threshold hysteresis in (0, 1].  Once a
        communicator is flagged slow, it stays flagged until its worst
        ratio drops below ``SLOW_THRESHOLD * slow_hysteresis`` — a
        flapping link hovering at the threshold cannot toggle the
        detector every window.  1.0 disables hysteresis.
    """

    hang_timeout: float = 30.0
    slow_window: float = 60.0
    wait_min_lateness: float = 0.05
    smooth_window_ops: int = 0
    debounce_evaluations: int = 1
    node_action_cooldown: float = 0.0
    slow_hysteresis: float = 1.0


class HangDetector:
    """Detects communication and non-communication hangs.

    ``name`` labels this detector's observability series
    (``c4d_detector_eval_seconds{detector=...}`` etc.).

    A communicator whose launches have stopped producing completions for
    longer than ``hang_timeout``:

    * ranks that never launched the stuck sequence (the largest any rank
      launched) never reached the collective → **non-communication
      hang**, localized to exactly those workers;
    * all ranks launched but none completed → **communication hang**
      (network-level), reported at communicator scope.
    """

    name = "hang"

    def __init__(self, collector: CentralCollector, config: DetectorConfig) -> None:
        self.collector = collector
        self.config = config

    def evaluate(self, now: float) -> list[Anomaly]:
        """Check every communicator for stalled progress."""
        anomalies: list[Anomaly] = []
        for comm_id in self.collector.comm_ids():
            progress = self.collector.progress[comm_id]
            launched = progress.max_launch_seq
            completed = progress.min_seq
            if launched <= completed:
                continue  # no op outstanding
            stall_reference = max(progress.last_completion_time, progress.created_at)
            stalled_for = now - stall_reference
            if stalled_for < self.config.hang_timeout:
                continue
            # Per-rank progress, not the bounded launch window: the stuck
            # seq is the largest any rank launched, so a rank launched it
            # exactly when its own last launch reached it.
            stuck_seq = launched
            last_launch = progress.last_launch_seq
            missing = [
                rank
                for rank in range(progress.record.size)
                if last_launch.get(rank, -1) < stuck_seq
            ]
            if missing:
                suspects = tuple(
                    Suspect(
                        kind=SuspectKind.WORKER,
                        node=progress.record.ranks[rank].node,
                        device=progress.record.ranks[rank].gpu,
                    )
                    for rank in missing
                )
                anomaly_type = AnomalyType.NONCOMM_HANG
            else:
                suspects = (Suspect(kind=SuspectKind.UNKNOWN),)
                anomaly_type = AnomalyType.COMM_HANG
            anomalies.append(
                Anomaly(
                    anomaly_type=anomaly_type,
                    comm_id=comm_id,
                    detected_at=now,
                    suspects=suspects,
                    evidence={"stalled_for": stalled_for, "stuck_seq": stuck_seq},
                )
            )
        return anomalies


class CommSlowDetector:
    """Detects communication slowdowns via the delay matrix (Fig. 7).

    With ``slow_hysteresis`` < 1 the detector is stateful: a flagged
    communicator keeps being analyzed against the lowered threshold
    until it genuinely clears, so a ratio hovering right at the
    threshold cannot produce an on/off anomaly stream.
    """

    name = "comm_slow"

    def __init__(
        self,
        collector: CentralCollector,
        config: DetectorConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.collector = collector
        self.config = config
        #: Communicators currently inside a slow episode (hysteresis).
        self._active: set[str] = set()
        self._m_skipped = _skip_counters(metrics, self.name, ("no_records", "too_few_ops"))

    def _threshold_for(self, comm_id: str) -> float:
        threshold = SLOW_THRESHOLD
        if comm_id in self._active:
            threshold *= self.config.slow_hysteresis
        return threshold

    def snapshot_state(self) -> dict:
        """Detached snapshot of the hysteresis state."""
        return {"active": sorted(self._active)}

    def restore_state(self, state: dict) -> None:
        """Replace hysteresis state with a :meth:`snapshot_state` dict."""
        self._active = set(state["active"])

    def evaluate(self, now: float) -> list[Anomaly]:
        """Analyze each communicator's recent transport records."""
        anomalies: list[Anomaly] = []
        since = now - self.config.slow_window
        for comm_id in self.collector.comm_ids():
            finding = self._outcome(comm_id, since, self._threshold_for(comm_id))
            if isinstance(finding, str):  # a skip reason
                self._m_skipped[finding].inc()
                continue
            if not finding.is_anomalous or not finding.suspects:
                self._active.discard(comm_id)
                continue
            self._active.add(comm_id)
            anomalies.append(
                Anomaly(
                    anomaly_type=AnomalyType.COMM_SLOW,
                    comm_id=comm_id,
                    detected_at=now,
                    suspects=finding.suspects,
                    evidence={
                        "baseline": finding.baseline,
                        "max_ratio": finding.max_ratio,
                        "flagged_pairs": finding.flagged_pairs,
                    },
                )
            )
        return anomalies

    def _outcome(self, comm_id: str, since: float, threshold: float) -> Union[str, MatrixFinding]:
        """The skip reason or delay-matrix finding of ``comm_id``'s window."""
        messages = self.collector.message_view(comm_id, since=since)
        if not len(messages):
            return "no_records"
        seqs = messages.seq
        # MIN_OPS_FOR_SLOW = 2 operations: two distinct seqs.
        if seqs.min() == seqs.max():
            return "too_few_ops"
        return analyze_delay_matrix(build_delay_matrix(messages), threshold=threshold)


class NonCommSlowDetector:
    """Detects compute/data-loading stragglers via wait chains."""

    name = "noncomm_slow"

    def __init__(
        self,
        collector: CentralCollector,
        config: DetectorConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.collector = collector
        self.config = config
        self._m_skipped = _skip_counters(metrics, self.name, ("too_few_ops",))

    def evaluate(self, now: float) -> list[Anomaly]:
        """Analyze the most recent completed operations per communicator."""
        anomalies: list[Anomaly] = []
        for comm_id in self.collector.comm_ids():
            if self.config.smooth_window_ops > 0:
                anomaly = self._evaluate_smoothed(comm_id, now)
            else:
                anomaly = self._evaluate_persistent(comm_id, now)
            if anomaly is not None:
                anomalies.append(anomaly)
        return anomalies

    def _evaluate_persistent(self, comm_id: str, now: float) -> Optional[Anomaly]:
        """Default mode: the same straggler in every recent operation."""
        recent_seqs = self.collector.latest_seqs(comm_id, MIN_OPS_FOR_SLOW)
        if len(recent_seqs) < MIN_OPS_FOR_SLOW:
            self._m_skipped["too_few_ops"].inc()
            return None
        # Require the straggler to persist over all examined ops so a
        # single benign hiccup is not escalated.
        per_seq_suspects: list[set[Suspect]] = []
        lateness = 0.0
        for seq in recent_seqs:
            finding = self._wait_chain(comm_id, seq)
            per_seq_suspects.append(set(finding.suspects))
            lateness = max(lateness, finding.lateness)
        persistent = set.intersection(*per_seq_suspects) if per_seq_suspects else set()
        if not persistent:
            return None
        return Anomaly(
            anomaly_type=AnomalyType.NONCOMM_SLOW,
            comm_id=comm_id,
            detected_at=now,
            suspects=tuple(sorted(persistent, key=str)),
            evidence={"lateness": lateness, "seqs": tuple(recent_seqs)},
        )

    def _wait_chain(self, comm_id: str, seq: int) -> WaitChainFinding:
        """``seq``'s wait-chain finding, analysed once per state of its records.

        The finding stays on the collector's entry until a record joins
        or leaves the seq's op bucket.  One detector, with one frozen
        config, reads each collector, so the finding needs no key.
        """
        findings = self.collector.progress[comm_id].seq_findings
        finding = findings.get(seq)
        if finding is None:
            finding = findings[seq] = find_stragglers(
                self.collector.ops_for_seq(comm_id, seq), self.config.wait_min_lateness
            )
        return finding

    def _evaluate_smoothed(self, comm_id: str, now: float) -> Optional[Anomaly]:
        """Smoothed mode: averaged lateness over the window (EP-friendly)."""
        recent_seqs = self.collector.latest_seqs(comm_id, self.config.smooth_window_ops)
        if len(recent_seqs) < self.config.smooth_window_ops:
            self._m_skipped["too_few_ops"].inc()
            return None
        groups = [self.collector.ops_for_seq(comm_id, seq) for seq in recent_seqs]
        finding = analyze_wait_chain_smoothed(groups, min_lateness=self.config.wait_min_lateness)
        if not finding.is_anomalous:
            return None
        return Anomaly(
            anomaly_type=AnomalyType.NONCOMM_SLOW,
            comm_id=comm_id,
            detected_at=now,
            suspects=finding.suspects,
            evidence={
                "lateness": finding.lateness,
                "seqs": tuple(recent_seqs),
                "smoothed": True,
            },
        )
