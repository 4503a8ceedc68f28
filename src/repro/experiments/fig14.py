"""Fig. 14: performance improvement in real-life training jobs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.workloads.generator import build_cluster, fig14_jobs

PAPER = {
    "job1": (74.82, 86.76),
    "job2": (156.59, 178.65),
    "job3": (None, None),
}

#: Training steps per job and mode; the first is warm-up.
STEPS = 3


@dataclass(frozen=True)
class JobResult:
    """One job's before/after throughput."""

    name: str
    baseline_samples_per_s: float
    c4p_samples_per_s: float
    baseline_comm_fraction: float

    @property
    def gain(self) -> float:
        """Relative throughput improvement with C4P."""
        return self.c4p_samples_per_s / self.baseline_samples_per_s - 1.0


@dataclass(frozen=True)
class Fig14Result:
    """All three jobs."""

    jobs: dict[str, JobResult]


def run(seed: int = 12) -> Fig14Result:
    """Train each Fig. 14 job with and without C4P."""
    jobs = {}
    for which in ("job1", "job2", "job3"):
        measured = {}
        comm_fraction = 0.0
        for use_c4p in (False, True):
            scenario = build_cluster(use_c4p=use_c4p, ecmp_seed=seed)
            job = fig14_jobs(scenario, which)
            job.run_steps(STEPS)
            scenario.network.run()
            measured[use_c4p] = job.throughput_samples_per_second(skip=1)
            if not use_c4p:
                comm_fraction = job.mean_comm_fraction(skip=1)
        jobs[which] = JobResult(
            name=which,
            baseline_samples_per_s=measured[False],
            c4p_samples_per_s=measured[True],
            baseline_comm_fraction=comm_fraction,
        )
    return Fig14Result(jobs=jobs)


def format_result(result: Fig14Result) -> str:
    """Render the three jobs' throughput comparison."""
    rows = []
    for name, job in result.jobs.items():
        paper_base, paper_c4p = PAPER[name]
        paper = f"{paper_base} -> {paper_c4p}" if paper_base else "no gain"
        rows.append(
            (
                name,
                f"{job.baseline_samples_per_s:.2f}",
                f"{job.c4p_samples_per_s:.2f}",
                f"+{100 * job.gain:.1f}%",
                f"{100 * job.baseline_comm_fraction:.0f}%",
                paper,
            )
        )
    header = "Fig. 14 — training throughput (samples/s) with/without C4P\n"
    return header + format_table(
        ["job", "baseline", "with C4P", "gain", "comm share", "paper"], rows
    )
