"""Fig. 12: tolerance to dynamic link failures (static TE vs dynamic LB)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.analysis.stats import Summary, summarize
from repro.core.c4p.load_balance import DynamicLoadBalancer
from repro.workloads.generator import build_cluster, concurrent_allreduce_jobs, fig12_spec

FAILED_UPLINK = ("lup", 0, 0, 0, 0)
#: Simulated seconds at which the uplink fails, and at which the run ends.
FAILURE_TIME = 0.1
RUN_UNTIL = 2.5


@dataclass(frozen=True)
class Fig12Mode:
    """One mode's before/after busbw samples."""

    dynamic: bool
    before: tuple[float, ...]
    after: tuple[float, ...]

    @property
    def summary_after(self) -> Summary:
        """Post-failure distribution."""
        return summarize(list(self.after))


@dataclass(frozen=True)
class Fig12Result:
    """Static vs dynamic behaviour around the failure."""

    static: Fig12Mode
    dynamic: Fig12Mode
    ideal_after: float = 7 / 8 * 362.0

    @property
    def gain(self) -> float:
        """Dynamic LB's relative improvement over static TE after failure."""
        return (
            self.dynamic.summary_after.mean / self.static.summary_after.mean - 1.0
        )


def _run_mode(dynamic: bool, seed: int) -> Fig12Mode:
    scenario = build_cluster(fig12_spec(), use_c4p=True, ecmp_seed=seed)
    runners = concurrent_allreduce_jobs(
        scenario,
        max_ops=10_000,
        warmup_ops=0,
        stop_time=RUN_UNTIL,
        dynamic=dynamic,
    )
    for runner in runners:
        runner.start()
    if dynamic:
        balancer = DynamicLoadBalancer([r.context for r in runners])
        balancer.start()
    scenario.network.schedule(
        FAILURE_TIME, lambda: scenario.network.fail_link(FAILED_UPLINK)
    )
    scenario.network.run(until=RUN_UNTIL)
    before = tuple(
        h.busbw_per_nic_gbps
        for r in runners
        for h in r.handles
        if h.end_time <= FAILURE_TIME
    )
    after = tuple(
        h.busbw_per_nic_gbps
        for r in runners
        for h in r.handles
        if h.start_time > FAILURE_TIME + 0.05
    )
    return Fig12Mode(dynamic=dynamic, before=before, after=after)


def run(seed: int = 6) -> Fig12Result:
    """Run both modes through the mid-run uplink failure."""
    return Fig12Result(static=_run_mode(False, seed), dynamic=_run_mode(True, seed))


def format_result(result: Fig12Result) -> str:
    """Render the before/after comparison."""
    pre = summarize(list(result.static.before) + list(result.dynamic.before))
    s_static = result.static.summary_after
    s_dynamic = result.dynamic.summary_after
    rows = [
        ("before failure", f"{pre.mean:.1f}", "-", "~362 (peak)"),
        (
            "static TE after",
            f"{s_static.mean:.1f}",
            f"{s_static.minimum:.0f}-{s_static.maximum:.0f}",
            "185.76 (160-220)",
        ),
        (
            "dynamic LB after",
            f"{s_dynamic.mean:.1f}",
            f"{s_dynamic.minimum:.0f}-{s_dynamic.maximum:.0f}",
            "301.46 (290-335)",
        ),
        ("7/8 ideal", f"{result.ideal_after:.1f}", "-", "315"),
    ]
    header = (
        f"Fig. 12 — busbw around a link failure; dynamic LB "
        f"+{100 * result.gain:.0f}% over static (paper +62.3%)\n"
    )
    return header + format_table(["phase", "mean", "range", "paper"], rows)
