"""Fig. 3: performance loss grows with system scale."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.workloads.generator import scaling_sweep_job

#: Nodes per point of the sweep (16 to 512 GPUs).
SCALES = (2, 4, 8, 16, 32, 64)
#: Training steps per point; the first is warm-up.
STEPS = 2


@dataclass(frozen=True)
class ScalePoint:
    """One bar pair of the figure."""

    num_nodes: int
    actual_samples_per_s: float
    ideal_samples_per_s: float

    @property
    def gpus(self) -> int:
        """GPU count at this point."""
        return self.num_nodes * 8

    @property
    def ratio(self) -> float:
        """Actual over ideal throughput."""
        return self.actual_samples_per_s / self.ideal_samples_per_s


@dataclass(frozen=True)
class Fig3Result:
    """The full sweep."""

    points: tuple[ScalePoint, ...]

    @property
    def ratio_at_smallest(self) -> float:
        """Actual/ideal at the smallest scale."""
        return self.points[0].ratio

    @property
    def ratio_at_largest(self) -> float:
        """Actual/ideal at the largest scale."""
        return self.points[-1].ratio


def run(seed: int = 2) -> Fig3Result:
    """Weak-scaling sweep of GPT-22B, ECMP baseline vs collision-free."""
    points = []
    for nodes in SCALES:
        throughput = {}
        for use_c4p in (False, True):
            job = scaling_sweep_job(nodes, use_c4p=use_c4p, ecmp_seed=seed)
            job.run_steps(STEPS)
            job.context.network.run()
            throughput[use_c4p] = job.throughput_samples_per_second(skip=1)
        points.append(
            ScalePoint(
                num_nodes=nodes,
                actual_samples_per_s=throughput[False],
                ideal_samples_per_s=throughput[True],
            )
        )
    return Fig3Result(points=tuple(points))


def format_result(result: Fig3Result) -> str:
    """Render the figure's bars as a table."""
    rows = [
        (
            f"GPU={p.gpus}",
            f"{p.actual_samples_per_s:.1f}",
            f"{p.ideal_samples_per_s:.1f}",
            f"{100 * p.ratio:.1f}%",
        )
        for p in result.points
    ]
    header = (
        "Fig. 3 — GPT-22B weak scaling, actual vs ideal (samples/s); "
        "paper: ~30% below ideal at 512 GPUs\n"
    )
    return header + format_table(["scale", "actual", "ideal", "actual/ideal"], rows)
