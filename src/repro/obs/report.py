"""Observability reports: JSON snapshots and the text dashboard.

One :class:`ObservabilityPlane` bundles the two halves of the
observability layer — a :class:`~repro.obs.metrics.MetricsRegistry` and
a :class:`~repro.obs.trace.FaultTracer` — so a chaos campaign or an
experiment run can attach both with one object; a campaign stamps every
scenario's fault spans on the plane's one tracer.  :func:`build_snapshot`
turns a plane into the machine-readable report (per-fault spans, false
positives, MTTD/MTTR accounting, every metric series) and
:func:`render_dashboard` renders that snapshot as the ``repro obs``
terminal view.  Neither reads ground truth: the spans arrive already
judged by :mod:`repro.chaos.scorecard`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import STAGES, FaultTracer

#: Snapshot schema version: bump on breaking layout changes so archived
#: reports stay interpretable.
SNAPSHOT_VERSION = 1


@dataclass
class ObservabilityPlane:
    """The per-run observability attachment: registry + fault tracer."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: FaultTracer = field(init=False)

    def __post_init__(self) -> None:
        self.tracer = FaultTracer(metrics=self.registry)

    def snapshot(self, meta: Optional[dict] = None) -> dict:
        """The machine-readable observability report for this run."""
        return build_snapshot(self.registry, self.tracer, meta=meta)


def build_snapshot(
    registry: MetricsRegistry,
    tracer: Optional[FaultTracer] = None,
    meta: Optional[dict] = None,
) -> dict:
    """Assemble the JSON observability report.

    Layout::

        {"version": 1, "meta": {...},
         "faults": [per-fault span dicts, inject→...→recover],
         "false_positives": [...],
         "accounting": {"mttd": {...histogram...}, "mttr": {...}, ...},
         "metrics": {name: {kind, help, series}}}
    """
    faults = []
    false_positives = []
    accounting: dict = {}
    if tracer is not None:
        faults = [
            span.to_dict()
            for span in sorted(tracer.spans.values(), key=lambda s: s.injected_at or 0.0)
        ]
        false_positives = [
            {"time": fp.time, "victims": [str(v) for v in fp.victims], "kind": fp.kind}
            for fp in tracer.false_positives
        ]
        accounting = tracer.accounting()
    return {
        "version": SNAPSHOT_VERSION,
        "meta": dict(meta or {}),
        "faults": faults,
        "false_positives": false_positives,
        "accounting": accounting,
        "metrics": registry.snapshot(),
    }


# ----------------------------------------------------------------------
# Text dashboard
# ----------------------------------------------------------------------
_BAR_WIDTH = 24


def render_dashboard(snapshot: dict) -> str:
    """Render a snapshot as the ``repro obs`` terminal dashboard."""
    lines: list[str] = []
    meta = snapshot.get("meta") or {}
    title = meta.get("title", "observability snapshot")
    lines.append(f"=== {title} ===")
    for key in sorted(k for k in meta if k != "title"):
        lines.append(f"{key}: {meta[key]}")

    accounting = snapshot.get("accounting") or {}
    if accounting:
        lines.append("")
        lines.append("-- fault accounting --")
        lines.append(
            "faults={faults} detected={detected} missed={missed} "
            "recovered={recovered} false_positives={false_positives}".format(**accounting)
        )
        for name in ("mttd", "mttr"):
            lines.extend(_render_latency(name.upper(), accounting.get(name) or {}))

    faults = snapshot.get("faults") or []
    if faults:
        lines.append("")
        lines.append("-- fault timelines --")
        for span in faults:
            lines.extend(_render_span(span))

    false_positives = snapshot.get("false_positives") or []
    if false_positives:
        lines.append("")
        lines.append(f"-- false positives ({len(false_positives)}) --")
        for fp in false_positives[:10]:
            victims = ",".join(fp["victims"]) or "-"
            lines.append(f"t={fp['time']:.0f}s kind={fp['kind'] or '-'} victims={victims}")
        if len(false_positives) > 10:
            lines.append(f"... {len(false_positives) - 10} more")

    metrics = snapshot.get("metrics") or {}
    if metrics:
        lines.append("")
        lines.append("-- metrics --")
        for name in sorted(metrics):
            lines.extend(_render_metric(name, metrics[name]))
    return "\n".join(lines)


def _render_latency(label: str, hist: dict) -> list[str]:
    if not hist or not hist.get("count"):
        return [f"{label}: no samples"]
    lines = [
        "{label}: n={count} min={min:.1f}s p50={p50:.1f}s p90={p90:.1f}s "
        "max={max:.1f}s mean={mean:.1f}s".format(label=label, **hist)
    ]
    buckets = hist.get("buckets") or {}
    # Archived snapshots may have been re-serialized with sorted keys
    # (write_json does), so differencing the cumulative counts must
    # re-order by bound instead of trusting dict insertion order.
    ordered = sorted(
        buckets.items(),
        key=lambda item: float("inf") if item[0] == "+Inf" else float(item[0]),
    )
    counts = []
    previous = 0
    for le, cumulative in ordered:
        counts.append((le, cumulative - previous))
        previous = cumulative
    peak = max((count for _, count in counts), default=0)
    for le, count in counts:
        if count == 0:
            continue
        bar = "#" * max(1, round(_BAR_WIDTH * count / peak)) if peak else ""
        lines.append(f"  <= {le:>6}s {count:4d} {bar}")
    return lines


def _render_span(span: dict) -> list[str]:
    stages = span.get("stages") or {}
    parts = []
    previous = None
    for stage in STAGES:
        if stage not in stages:
            continue
        t = stages[stage]
        if previous is None:
            parts.append(f"{stage}@{t:.0f}s")
        else:
            parts.append(f"{stage}@{t:.0f}s(+{t - previous:.0f}s)")
        previous = t
    mttd = span.get("mttd_seconds")
    mttr = span.get("mttr_seconds")
    tail = []
    tail.append(f"mttd={mttd:.0f}s" if mttd is not None else "mttd=-")
    tail.append(f"mttr={mttr:.0f}s" if mttr is not None else "mttr=-")
    victims = ",".join(span.get("victims") or ()) or "-"
    status = "detected" if span.get("detected") else "MISSED"
    return [
        f"{span['fault_id']:28s} [{span['kind']}] victims={victims} {status}",
        "    " + (" -> ".join(parts) if parts else "(no stages)") + "  " + " ".join(tail),
    ]


def _render_metric(name: str, family: dict) -> list[str]:
    lines: list[str] = []
    kind = family.get("kind")
    for entry in family.get("series") or []:
        labels = entry.get("labels") or {}
        label_text = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        if kind in ("counter", "gauge"):
            value = entry.get("value")
            lines.append(f"{name}{label_text} = {_fmt_value(value)}")
        else:
            if not entry.get("count"):
                continue
            lines.append(
                f"{name}{label_text} n={entry['count']} mean={_fmt_value(entry.get('mean'))} "
                f"p50={_fmt_value(entry.get('p50'))} p90={_fmt_value(entry.get('p90'))} "
                f"max={_fmt_value(entry.get('max'))}"
            )
    return lines


def _fmt_value(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "nan"
        return format(value, ".6g")
    return str(value)
