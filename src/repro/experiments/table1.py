"""Table I: crash-cause distribution of a representative large job."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.cluster.faults import USER_VIEW, FaultEvent, FaultInjector, FaultType

MONTH_SECONDS = 30 * 24 * 3600.0
#: Length of the sampled fault campaign.
MONTHS = 24
#: Size of the job (Table I's 4,096-GPU job, 8 GPUs per node).
NUM_GPUS = 4096

#: Paper's Table I: root cause -> (proportion, local fraction).
PAPER_MIX = {
    FaultType.CUDA_ERROR: (0.125, 1.00),
    FaultType.ECC_NVLINK_ERROR: (0.275, 1.00),
    FaultType.CCL_TIMEOUT: (0.20, 0.75),
    FaultType.ACK_TIMEOUT: (0.275, 0.818),
    FaultType.NETWORK_OTHER: (0.125, 0.40),
}

ROOT_CAUSE_LABEL = {
    FaultType.CUDA_ERROR: "CUDA Error",
    FaultType.ECC_NVLINK_ERROR: "ECC/NVLink Error",
    FaultType.CCL_TIMEOUT: "NCCL timeout",
    FaultType.ACK_TIMEOUT: "ACK timeout",
    FaultType.NETWORK_OTHER: "Others",
}


@dataclass(frozen=True)
class CauseRow:
    """One Table I row."""

    users_view: str
    root_cause: str
    proportion: float
    local_fraction: float
    paper_proportion: float
    paper_local: float


@dataclass(frozen=True)
class Table1Result:
    """The tabulated campaign."""

    rows: tuple[CauseRow, ...]
    total_events: int
    months: float
    local_fraction: float

    @property
    def crashes_per_month(self) -> float:
        """Average monthly crash count at the configured scale."""
        return self.total_events / self.months

    @property
    def nccl_error_fraction(self) -> float:
        """Fraction of causes that surface as a bare 'NCCL Error'."""
        return sum(r.proportion for r in self.rows if r.users_view == "NCCL Error")


def run(seed: int = 0) -> Table1Result:
    """Sample a fault campaign and tabulate it Table I-style."""
    injector = FaultInjector(seed=seed)
    events: list[FaultEvent] = injector.sample_crashes(
        MONTH_SECONDS * MONTHS, num_gpus=NUM_GPUS, num_nodes=NUM_GPUS // 8
    )
    by_type: dict[FaultType, list[FaultEvent]] = defaultdict(list)
    for event in events:
        by_type[event.fault_type].append(event)
    rows = []
    for fault_type, (paper_prop, paper_local) in PAPER_MIX.items():
        bucket = by_type.get(fault_type, [])
        local = sum(1 for e in bucket if e.is_local) / max(1, len(bucket))
        rows.append(
            CauseRow(
                users_view=USER_VIEW[fault_type],
                root_cause=ROOT_CAUSE_LABEL[fault_type],
                proportion=len(bucket) / len(events),
                local_fraction=local,
                paper_proportion=paper_prop,
                paper_local=paper_local,
            )
        )
    local_total = sum(1 for e in events if e.is_local) / len(events)
    return Table1Result(
        rows=tuple(rows),
        total_events=len(events),
        months=MONTHS,
        local_fraction=local_total,
    )


def format_result(result: Table1Result) -> str:
    """Render the paper-style table."""
    rows = [
        (
            row.users_view,
            row.root_cause,
            f"{100 * row.proportion:.1f}%",
            f"{100 * row.local_fraction:.1f}%",
            f"{100 * row.paper_proportion:.1f}% / {100 * row.paper_local:.1f}%",
        )
        for row in result.rows
    ]
    rows.append(
        ("-", "All local faults", f"{100 * result.local_fraction:.1f}%", "-", "82.5%")
    )
    header = (
        f"Table I — {result.crashes_per_month:.1f} crashes/month "
        f"({result.total_events} over {result.months:.0f} months)\n"
    )
    return header + format_table(
        ["Users' View", "Root Cause", "Proportion", "Local", "paper (prop/local)"], rows
    )
