"""Non-communication-slow localization via receiver wait chains.

In ring algorithms, data transmission is receiver-driven: a receiver
must post its buffer before the sender can transmit, so a rank that is
late to the collective (extra computation or data-loading cost) creates
a chain of peers waiting on it (paper §III-A).  C4D compares per-rank
wait times at the BSP barrier: the straggler launches *latest* and waits
*least*, while everyone else shows inflated waits.

The analysis reads only operation-layer records: the launch timestamps
logged by the patched kernels, since the latest launch is the shortest
wait.  :func:`find_stragglers` is the detector's plain-Python form of
:func:`analyze_wait_chain`, which is kept as its differential test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, isfinite
from typing import Sequence

import numpy as np

from repro.collective.monitoring import OpRecord
from repro.core.c4d.events import Suspect, SuspectKind
from repro.core.c4d.median import MAX_PLAIN, median

#: A rank is a straggler when its lateness exceeds this multiple of the
#: median absolute deviation of launch times (robust against benign
#: jitter).
RELATIVE_THRESHOLD = 3.0


@dataclass(frozen=True)
class WaitChainFinding:
    """Result of one wait-chain analysis."""

    suspects: tuple[Suspect, ...]
    #: Straggler lateness relative to the median launch, in seconds.
    lateness: float

    @property
    def is_anomalous(self) -> bool:
        """True when a straggler was identified."""
        return bool(self.suspects)


def analyze_wait_chain(
    records: Sequence[OpRecord], min_lateness: float = 0.0
) -> WaitChainFinding:
    """Identify stragglers from one operation's per-rank records.

    Parameters
    ----------
    records:
        Per-rank op records of a single (comm_id, seq).
    min_lateness:
        Absolute floor (seconds) below which lateness is ignored.
    """
    if len(records) < 3:
        return WaitChainFinding(suspects=(), lateness=0.0)
    launches = np.array([r.launch_time for r in records])
    median_launch = float(np.median(launches))
    mad = float(np.median(np.abs(launches - median_launch)))
    lateness = launches - median_launch
    max_lateness = float(lateness.max())

    # Robust cutoff: benign jitter scales with the MAD; a true straggler
    # stands far outside it.
    cutoff = max(min_lateness, RELATIVE_THRESHOLD * max(mad, 1e-9))
    straggler_idx = [i for i, late in enumerate(lateness) if late > cutoff]
    if not straggler_idx:
        return WaitChainFinding(suspects=(), lateness=max_lateness)

    suspects = tuple(
        Suspect(
            kind=SuspectKind.WORKER,
            node=records[i].location.node,
            device=records[i].location.gpu,
        )
        for i in straggler_idx
    )
    return WaitChainFinding(suspects=suspects, lateness=max_lateness)


def find_stragglers(records: Sequence[OpRecord], min_lateness: float = 0.0) -> WaitChainFinding:
    """:func:`analyze_wait_chain`, bit for bit, in plain Python.

    The medians come from :func:`~repro.core.c4d.median.median`.  The
    deviations from the median launch are taken over the sorted launches,
    so they arrive as one descending and one ascending run, which the
    MAD's sort merges in linear time.  Three cases go to
    :func:`analyze_wait_chain` itself: fewer than 3 or more than
    :data:`~repro.core.c4d.median.MAX_PLAIN` records, and launches whose
    result could hang on numpy's choice between equal values (a
    non-finite launch, or a zero maximum lateness beside a negative-zero
    launch).
    """
    if not 3 <= len(records) <= MAX_PLAIN:
        return analyze_wait_chain(records, min_lateness)
    launches = [r.launch_time for r in records]
    if not isfinite(sum(launches)):
        return analyze_wait_chain(records, min_lateness)
    ordered = sorted(launches)
    median_launch = median(ordered)
    max_lateness = ordered[-1] - median_launch
    if max_lateness == 0.0 and any(
        launch == 0.0 and copysign(1.0, launch) < 0 for launch in launches
    ):
        return analyze_wait_chain(records, min_lateness)
    mad = median([abs(launch - median_launch) for launch in ordered])
    cutoff = max(min_lateness, RELATIVE_THRESHOLD * max(mad, 1e-9))
    if not max_lateness > cutoff:
        return WaitChainFinding(suspects=(), lateness=max_lateness)
    suspects = tuple(
        Suspect(kind=SuspectKind.WORKER, node=r.location.node, device=r.location.gpu)
        for r, launch in zip(records, launches)
        if launch - median_launch > cutoff
    )
    return WaitChainFinding(suspects=suspects, lateness=max_lateness)


def analyze_wait_chain_smoothed(
    op_groups: Sequence[Sequence[OpRecord]], min_lateness: float = 0.0
) -> WaitChainFinding:
    """Straggler detection on *averaged* lateness over several operations.

    Expert-parallel workloads have legitimate per-operation load
    imbalance — a different rank is late every step because tokens route
    to different experts.  The paper's mitigation (§V): "averaging
    collected data over a predefined period to smooth out random
    variations and highlight systemic issues".  This variant computes
    each rank's mean lateness across the window and applies the robust
    cutoff to the means: random imbalance averages out, a systematically
    slow rank does not.

    ``op_groups`` is a list of per-operation record lists (all ranks of
    one (comm, seq) each).  Ranks must appear in every group.
    """
    groups = [list(g) for g in op_groups if len(g) >= 3]
    if not groups:
        return WaitChainFinding(suspects=(), lateness=0.0)
    rank_lateness: dict[int, list[float]] = {}
    locations: dict[int, object] = {}
    for group in groups:
        launches = np.array([r.launch_time for r in group])
        median_launch = float(np.median(launches))
        for record in group:
            rank_lateness.setdefault(record.rank, []).append(
                record.launch_time - median_launch
            )
            locations[record.rank] = record.location
    ranks = sorted(rank_lateness)
    means = np.array([float(np.mean(rank_lateness[rank])) for rank in ranks])
    median_mean = float(np.median(means))
    mad = float(np.median(np.abs(means - median_mean)))
    lateness = means - median_mean
    cutoff = max(min_lateness, RELATIVE_THRESHOLD * max(mad, 1e-9))
    straggler_ranks = [
        rank for rank, late in zip(ranks, lateness, strict=True) if late > cutoff
    ]
    max_lateness = float(lateness.max()) if len(lateness) else 0.0
    if not straggler_ranks:
        return WaitChainFinding(suspects=(), lateness=max_lateness)
    suspects = tuple(
        Suspect(
            kind=SuspectKind.WORKER,
            node=locations[rank].node,
            device=locations[rank].gpu,
        )
        for rank in straggler_ranks
    )
    return WaitChainFinding(suspects=suspects, lateness=max_lateness)
