"""Per-layer spans and counters, recorded from outside the program.

The traced repetition installs wrappers around public functions of each
layer (``repro.netsim``, ``repro.collective``, ``repro.core.c4p``,
``repro.telemetry``, ``repro.core.c4d``, ``repro.controlplane`` and
``repro.chaos``) before the workload is built.  Nothing under ``src/``
changes: a wrapper replaces a class attribute or a module-level name
binding for the life of the traced interpreter only.

A span's self time is its duration minus the time covered by nested
wrapped calls.  Work the tracer does for its own bookkeeping (counting
the operations a collector retains) runs untimed: its duration is taken
out of every open span.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    """Aggregate of every call to one wrapped function."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Span stack plus named counters, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: dict[str, float] = defaultdict(float)
        #: Open spans: [child_time, paused_time] per frame.
        self._stack: list[list[float]] = []
        #: Label of the enclosing chaos scenario kind, when there is one.
        self.context = ""
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        frame = [0.0, 0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started - frame[1]
            self._stack.pop()
            stats = self.spans[name]
            stats.calls += 1
            stats.total += elapsed
            stats.self_time += elapsed - frame[0]
            stats.durations.append(elapsed)
            if self._stack:
                self._stack[-1][0] += elapsed

    def untimed(self, fn, *args, **kwargs):
        """Run tracer bookkeeping without charging it to any open span."""
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = time.perf_counter() - started
            for frame in self._stack:
                frame[1] += spent

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(original)``."""
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call; ``after(result, args)`` may add counts."""

        def make(original):
            def wrapper(*args, **kwargs):
                result = self.timed(name, original, *args, **kwargs)
                if after is not None:
                    after(result, args)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (tests reuse the interpreter)."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        return self.spans[name].total if name in self.spans else 0.0

    def self_seconds(self, name: str) -> float:
        return self.spans[name].self_time if name in self.spans else 0.0

    def calls(self, name: str) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def p50_ms(self, name: str) -> float:
        if name not in self.spans or not self.spans[name].durations:
            return 0.0
        return 1000.0 * statistics.median(self.spans[name].durations)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.chaos.campaign import ChaosCampaign
    from repro.controlplane.c4d_plane import C4DControlPlane
    from repro.controlplane.c4p_plane import ResilientC4PMaster
    from repro.controlplane.journal import JournalStore
    from repro.core.c4d import detectors
    from repro.core.c4d.detectors import CommSlowDetector, HangDetector, NonCommSlowDetector
    from repro.core.c4d.master import C4DMaster
    from repro.core.c4p.master import C4PMaster
    from repro.core.c4p.registry import PathPoolExhausted
    from repro.netsim import network
    from repro.netsim.engine import EventQueue
    from repro.netsim.network import FlowNetwork
    from repro.telemetry.collector import CentralCollector

    counts = tracer.counts

    # -- netsim ---------------------------------------------------------
    def after_solve(rates, args):
        counts["netsim.max_min_rates.flows"] += len(args[0])

    tracer.span(network, "max_min_rates", "netsim.max_min_rates", after_solve)

    def after_rates(rates, args):
        keys = ["netsim.compute_rates.empty"]
        if tracer.context:
            counts[f"netsim.compute_rates.calls@{tracer.context}"] += 1
            keys.append(f"netsim.compute_rates.empty@{tracer.context}")
        if not rates:
            for key in keys:
                counts[key] += 1

    tracer.span(FlowNetwork, "compute_rates", "netsim.compute_rates", after_rates)

    def make_run(original):
        def run(net, *args, **kwargs):
            completed = len(net.completed_flows)
            try:
                return tracer.timed("netsim.run", original, net, *args, **kwargs)
            finally:
                counts["netsim.flows_completed"] += len(net.completed_flows) - completed

        return run

    tracer.patch(FlowNetwork, "run", make_run)

    def make_pop_due(original):
        def pop_due(queue, now):
            due = original(queue, now)
            counts["netsim.timers_fired"] += len(due)
            return due

        return pop_due

    tracer.patch(EventQueue, "pop_due", make_pop_due)

    # -- collective: flows it adds and the completion callbacks that
    # schedule its next phase ------------------------------------------
    def make_add_flow(original):
        def add_flow(net, flow):
            counts["collective.flows_added"] += 1
            callback = flow.on_complete
            if callback is not None:
                flow.on_complete = functools.partial(
                    tracer.timed, "collective.callbacks", callback
                )
            return original(net, flow)

        return add_flow

    tracer.patch(FlowNetwork, "add_flow", make_add_flow)

    # -- core.c4p -------------------------------------------------------
    def counting_exhaustion(name):
        def make(original):
            def wrapper(*args, **kwargs):
                try:
                    return tracer.timed(name, original, *args, **kwargs)
                except PathPoolExhausted:
                    counts["c4p.pool_exhausted"] += 1
                    raise

            return wrapper

        return make

    tracer.patch(C4PMaster, "allocate", counting_exhaustion("c4p.allocate"))
    tracer.patch(C4PMaster, "reallocate", counting_exhaustion("c4p.reallocate"))
    tracer.span(C4PMaster, "drain_link", "c4p.drain")
    tracer.span(C4PMaster, "maintenance", "c4p.maintenance")

    # -- telemetry ------------------------------------------------------
    for kind in ("communicator", "launch", "op", "message"):
        tracer.span(CentralCollector, f"ingest_{kind}", "telemetry.ingest")
    for query in ("ops", "messages", "ops_for_seq", "launches_for_seq", "latest_seqs"):
        tracer.span(CentralCollector, query, "telemetry.query")
    ops_query = CentralCollector.ops.__wrapped__

    def retained_ops(collector) -> None:
        for comm_id in collector.comm_ids():
            seqs = len({r.seq for r in ops_query(collector, comm_id)})
            low = counts.get("telemetry.ops_in_window")
            if low is None or seqs < low:
                counts["telemetry.ops_in_window"] = seqs

    # -- core.c4d -------------------------------------------------------
    def make_master_evaluate(original):
        def evaluate(master, *args, **kwargs):
            tracer.untimed(retained_ops, master.collector)
            fresh = tracer.timed("c4d.evaluate", original, master, *args, **kwargs)
            counts["c4d.fresh"] += len(fresh)
            return fresh

        return evaluate

    tracer.patch(C4DMaster, "evaluate", make_master_evaluate)

    def after_detector(verdicts, args):
        counts["c4d.verdicts"] += len(verdicts)

    for cls in (HangDetector, CommSlowDetector, NonCommSlowDetector):
        tracer.span(cls, "evaluate", f"c4d.{cls.name}", after_detector)
    tracer.span(detectors, "build_delay_matrix", "c4d.delay_matrix")

    # -- controlplane ---------------------------------------------------
    tracer.span(JournalStore, "append", "controlplane.append")
    for cls in (C4DControlPlane, ResilientC4PMaster):
        tracer.span(cls, "snapshot", "controlplane.snapshot")
        tracer.span(cls, "state_digest", "controlplane.digest")

    # -- chaos ----------------------------------------------------------
    def make_run_scenario(original):
        def run_scenario(campaign, scenario):
            outer, tracer.context = tracer.context, scenario.kind.value
            try:
                return tracer.timed(
                    f"chaos.{scenario.kind.value}", original, campaign, scenario
                )
            finally:
                tracer.context = outer

        return run_scenario

    tracer.patch(ChaosCampaign, "run_scenario", make_run_scenario)


def _family_total(registry, name: str) -> float:
    """Sum of a counter family, or of a histogram family's sums."""
    for family in registry.families():
        if family.name != name:
            continue
        total = 0.0
        for _labels, child in family.series():
            total += child.sum if hasattr(child, "sum") else child.value
        return total
    return 0.0


def layer_metrics(tracer: Tracer, registries) -> dict[str, float]:
    """Every per-layer metric the benchmark reports, by name.

    ``registries`` are the workload's metric registries; counts the
    program already keeps (window evictions, gate suppressions, journal
    replays) are read from them rather than traced a second time.
    """

    def registry_total(name: str) -> float:
        return sum(_family_total(r, name) for r in registries)

    c = tracer.counts
    solves = tracer.calls("netsim.max_min_rates")
    rate_calls = tracer.calls("netsim.compute_rates")
    run_s = tracer.seconds("netsim.run")
    events = c["netsim.timers_fired"] + c["netsim.flows_completed"]
    verdicts = c["c4d.verdicts"]
    replay_entries = registry_total("controlplane_replayed_entries_total")
    replay_s = registry_total("controlplane_replay_seconds")
    return {
        "netsim.max_min_rates.calls": solves,
        "netsim.max_min_rates.s": tracer.seconds("netsim.max_min_rates"),
        "netsim.max_min_rates.flows_mean": (
            c["netsim.max_min_rates.flows"] / solves if solves else 0.0
        ),
        "netsim.compute_rates.calls": rate_calls,
        "netsim.compute_rates.self_s": tracer.self_seconds("netsim.compute_rates"),
        "netsim.compute_rates.empty_frac": (
            c["netsim.compute_rates.empty"] / rate_calls if rate_calls else 0.0
        ),
        "netsim.run.s": run_s,
        "netsim.timers_fired": c["netsim.timers_fired"],
        "netsim.events_per_s": events / run_s if run_s else 0.0,
        "collective.flows_added": c["collective.flows_added"],
        "collective.callbacks.self_s": tracer.self_seconds("collective.callbacks"),
        "c4p.allocate.calls": tracer.calls("c4p.allocate"),
        "c4p.allocate.s": tracer.seconds("c4p.allocate"),
        "c4p.drain.calls": tracer.calls("c4p.drain"),
        "c4p.drain.s": tracer.seconds("c4p.drain"),
        "c4p.maintenance.s": tracer.seconds("c4p.maintenance"),
        "c4p.pool_exhausted": c["c4p.pool_exhausted"],
        "telemetry.ingest.records": tracer.calls("telemetry.ingest"),
        "telemetry.ingest.s": tracer.seconds("telemetry.ingest"),
        "telemetry.window_evictions": registry_total("telemetry_window_evictions_total"),
        "telemetry.query.calls": tracer.calls("telemetry.query"),
        "telemetry.query.s": tracer.seconds("telemetry.query"),
        "telemetry.ops_in_window": c.get("telemetry.ops_in_window", 0),
        "c4d.hang.eval_ms_p50": tracer.p50_ms("c4d.hang"),
        "c4d.comm_slow.eval_ms_p50": tracer.p50_ms("c4d.comm_slow"),
        "c4d.noncomm_slow.eval_ms_p50": tracer.p50_ms("c4d.noncomm_slow"),
        "c4d.delay_matrix.build_s": tracer.seconds("c4d.delay_matrix"),
        "c4d.evaluations": tracer.calls("c4d.evaluate"),
        "c4d.verdicts": verdicts,
        "c4d.suppressed": registry_total("c4d_suppressions_total"),
        "c4d.fresh_frac": c["c4d.fresh"] / verdicts if verdicts else 0.0,
        "controlplane.append.calls": tracer.calls("controlplane.append"),
        "controlplane.append.s": tracer.seconds("controlplane.append"),
        "controlplane.snapshot.calls": tracer.calls("controlplane.snapshot"),
        "controlplane.snapshot.s": tracer.seconds("controlplane.snapshot"),
        "controlplane.digest.s": tracer.seconds("controlplane.digest"),
        "controlplane.replay.entries": replay_entries,
        "controlplane.replay.s": replay_s,
        "controlplane.replay_entries_per_s": (
            replay_entries / replay_s if replay_s else 0.0
        ),
        "chaos.pipeline.wall_s": tracer.seconds("chaos.pipeline"),
        "chaos.recovery.wall_s": tracer.seconds("chaos.recovery"),
        "chaos.fabric.wall_s": tracer.seconds("chaos.fabric"),
        "chaos.controlplane.wall_s": tracer.seconds("chaos.controlplane"),
    }


def details(tracer: Tracer) -> dict[str, float]:
    """Diagnostics beside the metrics: self time of every span, and the
    zero-flow share of ``compute_rates`` per chaos scenario kind."""
    out = {f"self_s.{name}": s.self_time for name, s in sorted(tracer.spans.items())}
    for key, value in sorted(tracer.counts.items()):
        if key.startswith("netsim.compute_rates.calls@"):
            kind = key.split("@", 1)[1]
            empty = tracer.counts.get(f"netsim.compute_rates.empty@{kind}", 0.0)
            out[f"empty_frac@{kind}"] = empty / value if value else 0.0
    return out
