"""Communication-slow localization via the pairwise delay matrix.

Implements the paper's Fig. 7 analysis: transport-layer message
durations are mapped into a matrix indexed by (source worker,
destination worker).  Because ACCL posts identically sized messages on
every worker (the frameworks' deterministic chunking), a healthy matrix
is uniform; outliers localize the fault:

* one large cell      → a specific connection bottleneck,
* a row of large cells    → the source worker,
* a column of large cells → the destination worker,
* row *and* column through the same worker → that worker's NIC/host.

Workers are identified by (node, nic) pairs — one worker per GPU in the
reference design.

The pass stays in arrays from the window to the verdict.
:func:`build_delay_matrix` reads a message window as columns (the
collector's :class:`~repro.telemetry.collector.MessageView`, filled at
ingest; a plain iterable of records is packed into the same columns
first).  The collector marks a message whose size or rate is not a
finite positive number invalid, so every rate the build reads is one.
It sorts the rows by pair, then rate, and takes each pair's median from
the sorted run: the middle value for an odd count, ``(v[h-1] + v[h]) /
2`` for an even one.  Those are the IEEE operations ``np.median``
performs.  The matrix it
returns is columns too: the pair keys in their first-appearance order in
the window, a score array, and each pair's source and destination worker
ids as the window numbered them.  :func:`analyze_delay_matrix` divides
the scores by their median in one vector expression and counts each
worker's flagged and observed pairs with ``np.bincount``; Python touches
only the flagged pairs and their workers.

The per-pair ``np.median`` build and the dict walk that the analysis
replaced are kept as differential test oracles in
``tests/core_c4d/test_delay_matrix.py``: the scores, suspects, flagged
pairs, baseline and maximum ratio must match them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.collective.monitoring import MessageRecord
from repro.core.c4d.events import Suspect, SuspectKind
from repro.core.c4d.median import MAX_PLAIN, median
from repro.telemetry.collector import MessageView, Pair, Worker


@dataclass(eq=False, slots=True)
class DelayMatrix:
    """Normalized per-pair delay scores, as columns.

    ``values[i]`` is the median seconds-per-bit of the messages on the
    directed worker pair ``pairs[i]`` — size-normalized so different
    message sizes are comparable, exactly why the paper monitors at the
    transport layer where sizes are deterministic.  ``ends[i]`` holds
    that pair's source and destination worker ids.
    """

    pairs: list[Pair]
    values: np.ndarray
    ends: np.ndarray

    @property
    def scores(self) -> dict[Pair, float]:
        """``{pair: score}``, in the matrix's pair order."""
        return dict(zip(self.pairs, self.values.tolist()))

    def baseline(self) -> float:
        """Cluster-wide median delay score (the healthy reference)."""
        if not self.pairs:
            raise ValueError("empty delay matrix")
        # The plain median sorts a list; above MAX_PLAIN numpy's runs
        # on the array itself.
        values = self.values
        return median(values if len(values) > MAX_PLAIN else values.tolist())


@dataclass(frozen=True)
class MatrixFinding:
    """Result of analyzing a delay matrix."""

    suspects: tuple[Suspect, ...]
    flagged_pairs: tuple[Pair, ...]
    baseline: float
    max_ratio: float

    @property
    def is_anomalous(self) -> bool:
        """True when at least one pair exceeded the threshold."""
        return bool(self.flagged_pairs)


def build_delay_matrix(messages: MessageView | Iterable[MessageRecord]) -> DelayMatrix:
    """Aggregate transport records into a delay matrix.

    Messages whose size or rate is not a finite positive number are
    skipped: they carry no rate information.
    """
    if not isinstance(messages, MessageView):
        messages = MessageView.pack(messages)
    pair = messages.pair
    rate = messages.rate
    if not len(pair):
        return DelayMatrix([], rate, messages.ends[:0])
    # Order by pair, then rate: sort the rates, then stable-sort their
    # pair ids (small unsigned ints sort by radix).
    order = rate.argsort()
    pair_type = np.min_scalar_type(len(messages.pairs))
    order = order[pair[order].astype(pair_type).argsort(kind="stable")]
    pair = pair[order]
    rate = rate[order]
    # Each pair's run of rates is [starts[i], stops[i]).
    bounds = np.concatenate(([0], (pair[1:] != pair[:-1]).nonzero()[0] + 1, [len(pair)]))
    starts, stops = bounds[:-1], bounds[1:]
    counts = stops - starts
    middle = starts + counts // 2
    medians = rate[middle]
    even = counts % 2 == 0
    medians[even] = (rate[middle[even] - 1] + medians[even]) / 2
    # A run's smallest window position is its pair's first appearance.
    appearance = np.minimum.reduceat(order, starts).argsort()
    ids = pair[starts][appearance]
    pairs = messages.pairs
    return DelayMatrix(
        [pairs[i] for i in ids.tolist()], medians[appearance], np.take(messages.ends, ids, axis=0)
    )


#: Default flagging ratio: a pair is flagged when its score exceeds
#: this multiple of the cluster median.
SLOW_THRESHOLD = 1.8
#: A worker is promoted from "flagged pairs" to a WORKER suspect when at
#: least this fraction of its observed row+column pairs are flagged.
ROW_FRACTION = 0.6


def analyze_delay_matrix(matrix: DelayMatrix, threshold: float = SLOW_THRESHOLD) -> MatrixFinding:
    """Localize slow components from a delay matrix.

    Parameters
    ----------
    matrix:
        The aggregated delay matrix.
    threshold:
        A pair is flagged when its score exceeds ``threshold`` x the
        cluster median.

    Notes
    -----
    Ring communicators observe only one pair per (row, column), so a
    degraded worker shows up as its outgoing *and* incoming pair both
    flagged — the intersection logic below promotes exactly that worker,
    matching the paper's row/column reading of Fig. 7.
    """
    if not matrix.pairs:
        return MatrixFinding(suspects=(), flagged_pairs=(), baseline=float("nan"), max_ratio=0.0)
    baseline = matrix.baseline()

    ratios = matrix.values / baseline
    max_ratio = float(ratios.max())
    flagged = (ratios > threshold).nonzero()[0]
    if not len(flagged):
        return MatrixFinding(suspects=(), flagged_pairs=(), baseline=baseline, max_ratio=max_ratio)

    # A worker is promoted when it has two flagged pairs (rows as src,
    # columns as dst) and they are ROW_FRACTION of its observed ones.
    flagged_ends = np.take(matrix.ends, flagged, axis=0)
    observed = np.bincount(matrix.ends.ravel())
    hits = np.bincount(flagged_ends.ravel(), minlength=len(observed))
    candidates = (hits >= 2).nonzero()[0]
    promoted = set(candidates[hits[candidates] / observed[candidates] >= ROW_FRACTION].tolist())

    pairs = matrix.pairs
    flagged_pairs = [pairs[i] for i in flagged.tolist()]
    # Promoted workers in their first appearance among the flagged pairs.
    promoted_workers: dict[Worker, None] = {}
    if promoted:
        for pair, pair_ends in zip(flagged_pairs, flagged_ends.tolist()):
            for worker, worker_id in zip(pair, pair_ends):
                if worker_id in promoted:
                    promoted_workers[worker] = None
    worker_suspects = list(promoted_workers)

    suspects: list[Suspect] = [
        Suspect(kind=SuspectKind.WORKER, node=node, device=nic)
        for node, nic in worker_suspects
    ]
    # Whole-node promotion: if several workers of one node are suspect,
    # report the node (host-level fault such as PCIe degradation).
    by_node: dict[int, int] = {}
    for node, _nic in worker_suspects:
        by_node[node] = by_node.get(node, 0) + 1
    node_suspects = {node for node, count in by_node.items() if count >= 2}
    if node_suspects:
        suspects = [
            s for s in suspects if s.node not in node_suspects
        ] + [Suspect(kind=SuspectKind.NODE, node=node) for node in sorted(node_suspects)]

    # Remaining flagged pairs not explained by a worker/node suspect are
    # connection suspects.
    for src, dst in flagged_pairs:
        if (
            src in promoted_workers
            or dst in promoted_workers
            or src[0] in node_suspects
            or dst[0] in node_suspects
        ):
            continue
        suspects.append(
            Suspect(
                kind=SuspectKind.CONNECTION,
                node=src[0],
                device=src[1],
                peer_node=dst[0],
                peer_device=dst[1],
            )
        )

    return MatrixFinding(
        suspects=tuple(suspects),
        flagged_pairs=tuple(flagged_pairs),
        baseline=baseline,
        max_ratio=max_ratio,
    )
