"""Fig. 9: bonded-port balance for a single allreduce."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.workloads.generator import allreduce_benchmark, build_cluster

#: Nodes per point of the sweep (16 to 128 GPUs).
SCALES = (2, 4, 8, 16)
#: Allreduces per run, of which the first ``WARMUP`` are not measured.
OPS = 6
WARMUP = 2


@dataclass(frozen=True)
class Fig9Point:
    """One scale's bar pair."""

    num_nodes: int
    busbw_without: float
    busbw_with: float

    @property
    def gpus(self) -> int:
        """GPU count at this point."""
        return self.num_nodes * 8

    @property
    def gain(self) -> float:
        """Relative improvement of C4P over the baseline."""
        return self.busbw_with / self.busbw_without - 1.0


@dataclass(frozen=True)
class Fig9Result:
    """The full scale sweep."""

    points: tuple[Fig9Point, ...]

    @property
    def peak_with_c4p(self) -> float:
        """Best busbw achieved with C4P (the NVLink-capped peak)."""
        return max(p.busbw_with for p in self.points)

    @property
    def worst_without(self) -> float:
        """Worst baseline busbw."""
        return min(p.busbw_without for p in self.points)


def run(seed: int = 9) -> Fig9Result:
    """Measure allreduce busbw with and without C4P at each scale."""
    points = []
    for nodes in SCALES:
        busbw = {}
        for use_c4p in (False, True):
            scenario = build_cluster(use_c4p=use_c4p, ecmp_seed=seed)
            runner = allreduce_benchmark(
                scenario, list(range(nodes)), max_ops=OPS, warmup_ops=WARMUP
            )
            runner.start()
            scenario.network.run()
            busbw[use_c4p] = runner.mean_busbw_gbps
        points.append(
            Fig9Point(num_nodes=nodes, busbw_without=busbw[False], busbw_with=busbw[True])
        )
    return Fig9Result(points=tuple(points))


def format_result(result: Fig9Result) -> str:
    """Render the figure's bars as a table."""
    rows = [
        (
            f"{p.gpus} GPUs",
            f"{p.busbw_without:.1f}",
            f"{p.busbw_with:.1f}",
            f"+{100 * p.gain:.0f}%",
        )
        for p in result.points
    ]
    header = (
        "Fig. 9 — allreduce busbw (Gbps) per NIC; paper: <240 without, "
        "~360 with C4P\n"
    )
    return header + format_table(["scale", "without C4P", "with C4P", "gain"], rows)
