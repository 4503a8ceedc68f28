"""Fig. 10: global traffic engineering across concurrent jobs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.analysis.stats import Summary, summarize
from repro.workloads.generator import build_cluster, concurrent_allreduce_jobs, fig10b_spec

#: Allreduces per job, of which the first ``WARMUP`` are not measured.
OPS = 10
WARMUP = 3


@dataclass(frozen=True)
class Fig10Result:
    """Per-job busbw series for one oversubscription setting."""

    oversub_2to1: bool
    without_c4p: tuple[float, ...]
    with_c4p: tuple[float, ...]

    @property
    def summary_without(self) -> Summary:
        """Baseline distribution across jobs."""
        return summarize(list(self.without_c4p))

    @property
    def summary_with(self) -> Summary:
        """C4P distribution across jobs."""
        return summarize(list(self.with_c4p))

    @property
    def mean_gain(self) -> float:
        """Relative mean-throughput improvement of C4P."""
        return self.summary_with.mean / self.summary_without.mean - 1.0


def _run_case(use_c4p: bool, oversub_2to1: bool, seed: int):
    if oversub_2to1:
        scenario = build_cluster(
            fig10b_spec(),
            use_c4p=use_c4p,
            ecmp_seed=seed,
            congestion=True,
            disable_spines_per_rail=4,
        )
    else:
        scenario = build_cluster(use_c4p=use_c4p, ecmp_seed=seed)
    runners = concurrent_allreduce_jobs(scenario, max_ops=OPS, warmup_ops=WARMUP)
    for runner in runners:
        runner.start()
    scenario.network.run()
    return tuple(runner.mean_busbw_gbps for runner in runners)


def run(oversub_2to1: bool = False, seed: int = 4) -> Fig10Result:
    """Run the 8-job contention experiment with and without C4P."""
    return Fig10Result(
        oversub_2to1=oversub_2to1,
        without_c4p=_run_case(False, oversub_2to1, seed),
        with_c4p=_run_case(True, oversub_2to1, seed),
    )


def format_result(result: Fig10Result) -> str:
    """Render per-job busbw for both modes."""
    rows = [
        (f"job{j}", f"{without:.1f}", f"{with_c4p:.1f}")
        for j, (without, with_c4p) in enumerate(
            zip(result.without_c4p, result.with_c4p, strict=True)
        )
    ]
    s_without, s_with = result.summary_without, result.summary_with
    rows.append(("mean", f"{s_without.mean:.1f}", f"{s_with.mean:.1f}"))
    rows.append(("spread", f"{s_without.spread:.1f}", f"{s_with.spread:.1f}"))
    label = "2:1" if result.oversub_2to1 else "1:1"
    paper = "+65.55%, 11.27 Gbps gap" if result.oversub_2to1 else "+70.3%"
    header = (
        f"Fig. 10{'b' if result.oversub_2to1 else 'a'} — 8 concurrent jobs, "
        f"{label} oversubscription (busbw Gbps); measured mean gain "
        f"+{100 * result.mean_gain:.1f}% (paper {paper})\n"
    )
    return header + format_table(["job", "without C4P", "with C4P"], rows)
