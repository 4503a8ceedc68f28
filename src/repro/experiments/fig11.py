"""Fig. 11: CNP counts per bonded port in the congested configuration."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.workloads.generator import build_cluster, concurrent_allreduce_jobs, fig10b_spec

#: Allreduces per job.
OPS = 12


@dataclass(frozen=True)
class Fig11Result:
    """Per-bonded-port CNP rates over the run."""

    rates_per_second: dict[tuple, float]

    @property
    def values(self) -> list[float]:
        """Sorted CNP rates."""
        return sorted(self.rates_per_second.values())

    @property
    def mean(self) -> float:
        """Mean CNP/s across engaged ports."""
        return statistics.mean(self.values)

    @property
    def band(self) -> tuple[float, float]:
        """(min, max) CNP/s."""
        values = self.values
        return values[0], values[-1]


def run(seed: int = 4) -> Fig11Result:
    """The Fig. 10b run, reading the congestion model's CNP counters."""
    scenario = build_cluster(
        fig10b_spec(),
        use_c4p=True,
        ecmp_seed=seed,
        congestion=True,
        disable_spines_per_rail=4,
    )
    runners = concurrent_allreduce_jobs(scenario, max_ops=OPS, warmup_ops=0)
    for runner in runners:
        runner.start()
    scenario.network.run()
    duration = scenario.network.now
    counts = scenario.network.congestion.cnp_counts
    return Fig11Result(
        rates_per_second={port: total / duration for port, total in counts.items()}
    )


def format_result(result: Fig11Result) -> str:
    """Render the CNP-rate summary."""
    low, high = result.band
    rows = [
        ("bonded ports engaged", str(len(result.values))),
        ("min CNP/s", f"{low:.0f}"),
        ("mean CNP/s", f"{result.mean:.0f}"),
        ("max CNP/s", f"{high:.0f}"),
        ("paper", "~15,000/s, band 12,500-17,500"),
    ]
    return "Fig. 11 — CNPs received per bonded port (2:1 run)\n" + format_table(
        ["metric", "value"], rows
    )
