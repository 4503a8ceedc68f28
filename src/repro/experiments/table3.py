"""Table III: error-induced downtime before and after C4D."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.training.lifetime import (
    BASELINE_OPERATIONS,
    C4D_OPERATIONS,
    DowntimeBreakdown,
    LifetimeConfig,
    simulate_lifetime,
)

#: GPUs of the simulated cluster.
NUM_GPUS = 2400

#: Paper's Table III totals.
PAPER = {
    "jun23": {
        "Post-Checkpoint": 0.0753,
        "Detection": 0.0341,
        "Diagnosis & Isolation": 0.1965,
        "Re-Initialization": 0.006,
        "Total": 0.3119,
    },
    "dec23": {
        "Post-Checkpoint": 0.0023,
        "Detection": 0.0005,
        "Diagnosis & Isolation": 0.0073,
        "Re-Initialization": 0.0015,
        "Total": 0.0116,
    },
}

COMPONENTS = (
    "Post-Checkpoint",
    "Detection",
    "Diagnosis & Isolation",
    "Re-Initialization",
    "Total",
)


@dataclass(frozen=True)
class Table3Result:
    """Both regimes of the downtime comparison."""

    before: DowntimeBreakdown
    after: DowntimeBreakdown

    @property
    def total_before(self) -> float:
        """Error-induced downtime fraction without C4D."""
        return self.before.as_table()["Total"]

    @property
    def total_after(self) -> float:
        """Error-induced downtime fraction with C4D."""
        return self.after.as_table()["Total"]

    @property
    def reduction_factor(self) -> float:
        """How many times less downtime the C4D regime suffers."""
        return self.total_before / self.total_after


def run(seed: int = 7) -> Table3Result:
    """Simulate one month under both operations regimes."""
    config = LifetimeConfig(seed=seed, num_gpus=NUM_GPUS)
    return Table3Result(
        before=simulate_lifetime(config, BASELINE_OPERATIONS),
        after=simulate_lifetime(config, C4D_OPERATIONS),
    )


def format_result(result: Table3Result) -> str:
    """Render the paper-style before/after table."""
    before, after = result.before.as_table(), result.after.as_table()
    rows = [
        (
            component,
            f"{100 * before[component]:.2f}%",
            f"{100 * PAPER['jun23'][component]:.2f}%",
            f"{100 * after[component]:.2f}%",
            f"{100 * PAPER['dec23'][component]:.2f}%",
        )
        for component in COMPONENTS
    ]
    header = (
        f"Table III — downtime {100 * result.total_before:.1f}% -> "
        f"{100 * result.total_after:.2f}% "
        f"({result.reduction_factor:.0f}x reduction; paper ~30x)\n"
    )
    return header + format_table(
        ["Component", "measured Jun", "paper Jun", "measured Dec", "paper Dec"], rows
    )
