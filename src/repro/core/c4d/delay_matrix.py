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

:func:`build_delay_matrix` reads a message window as columns (the
collector's :class:`~repro.telemetry.collector.MessageView`, filled at
ingest; a plain iterable of records is packed into the same columns
first).  It sorts the rows by pair, then rate, and takes each pair's
median from the sorted run: the middle value for an odd count,
``(v[h-1] + v[h]) / 2`` for an even one, NaN when any value is NaN.
Those are the IEEE operations ``np.median`` performs, so the scores are
bit-for-bit those of :func:`build_delay_matrix_reference`, the per-pair
``np.median`` formulation kept as the test oracle, and the pair keys
keep their first-appearance order in the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.collective.monitoring import MessageRecord
from repro.core.c4d.events import Suspect, SuspectKind
from repro.telemetry.collector import MessageView

Worker = tuple[int, int]  # (node, nic)


@dataclass
class DelayMatrix:
    """Normalized per-pair delay scores.

    ``scores[(src, dst)]`` is the median seconds-per-bit of messages on
    that directed worker pair — size-normalized so different message
    sizes are comparable, exactly why the paper monitors at the
    transport layer where sizes are deterministic.
    """

    scores: dict[tuple[Worker, Worker], float] = field(default_factory=dict)

    @property
    def workers(self) -> list[Worker]:
        """All workers appearing as a source or destination."""
        seen: dict[Worker, None] = {}
        for src, dst in self.scores:
            seen.setdefault(src, None)
            seen.setdefault(dst, None)
        return list(seen)

    def baseline(self) -> float:
        """Cluster-wide median delay score (the healthy reference)."""
        if not self.scores:
            raise ValueError("empty delay matrix")
        return float(np.median(list(self.scores.values())))

    def ratio(self, src: Worker, dst: Worker) -> float:
        """A pair's score relative to the baseline."""
        return self.scores[(src, dst)] / self.baseline()


@dataclass(frozen=True)
class MatrixFinding:
    """Result of analyzing a delay matrix."""

    suspects: tuple[Suspect, ...]
    flagged_pairs: tuple[tuple[Worker, Worker], ...]
    baseline: float
    max_ratio: float

    @property
    def is_anomalous(self) -> bool:
        """True when at least one pair exceeded the threshold."""
        return bool(self.flagged_pairs)


def build_delay_matrix(messages: MessageView | Iterable[MessageRecord]) -> DelayMatrix:
    """Aggregate transport records into a delay matrix.

    Messages with non-positive size or duration are skipped (defensive:
    they carry no rate information).
    """
    if not isinstance(messages, MessageView):
        messages = MessageView.pack(messages)
    valid = messages.rows["valid"]
    pair = messages.rows["pair"][valid]
    rate = messages.rows["rate"][valid]
    matrix = DelayMatrix()
    if not len(pair):
        return matrix
    # Order by pair, then rate: sort the rates, then stable-sort their
    # pair ids (small unsigned ints sort by radix).  NaN sorts last, so
    # a run that ends in NaN holds one.
    order = np.argsort(rate)
    pair_type = np.min_scalar_type(len(messages.pairs))
    order = order[np.argsort(pair[order].astype(pair_type), kind="stable")]
    pair = pair[order]
    rate = rate[order]
    starts = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))
    ends = np.append(starts[1:], len(pair))
    counts = ends - starts
    median = rate[starts + counts // 2]
    even = counts % 2 == 0
    median[even] = (rate[(starts + counts // 2 - 1)[even]] + median[even]) / 2
    median[np.isnan(rate[ends - 1])] = np.nan
    # A run's smallest window position is its pair's first appearance.
    appearance = np.argsort(np.minimum.reduceat(order, starts))
    pairs = messages.pairs
    matrix.scores = dict(
        zip([pairs[i] for i in pair[starts][appearance].tolist()], median[appearance].tolist())
    )
    return matrix


def build_delay_matrix_reference(records: Iterable[MessageRecord]) -> DelayMatrix:
    """Per-pair ``np.median`` formulation of :func:`build_delay_matrix`.

    Kept unchanged as the differential test oracle: the fast build must
    return the same scores, bit for bit, in the same key order.
    """
    samples: dict[tuple[Worker, Worker], list[float]] = {}
    for record in records:
        if record.size_bits <= 0 or record.duration <= 0:
            continue
        key = ((record.src_node, record.src_nic), (record.dst_node, record.dst_nic))
        samples.setdefault(key, []).append(record.duration / record.size_bits)
    matrix = DelayMatrix()
    for key, values in samples.items():
        matrix.scores[key] = float(np.median(values))
    return matrix


def analyze_delay_matrix(
    matrix: DelayMatrix,
    threshold: float = 1.8,
    row_fraction: float = 0.6,
) -> MatrixFinding:
    """Localize slow components from a delay matrix.

    Parameters
    ----------
    matrix:
        The aggregated delay matrix.
    threshold:
        A pair is flagged when its score exceeds ``threshold`` x the
        cluster median.
    row_fraction:
        A worker is promoted from "flagged pairs" to a WORKER suspect
        when at least this fraction of its observed row+column pairs are
        flagged.

    Notes
    -----
    Ring communicators observe only one pair per (row, column), so a
    degraded worker shows up as its outgoing *and* incoming pair both
    flagged — the intersection logic below promotes exactly that worker,
    matching the paper's row/column reading of Fig. 7.
    """
    if not matrix.scores:
        return MatrixFinding(suspects=(), flagged_pairs=(), baseline=float("nan"), max_ratio=0.0)
    baseline = matrix.baseline()
    if baseline <= 0:
        return MatrixFinding(suspects=(), flagged_pairs=(), baseline=baseline, max_ratio=0.0)

    ratios = [score / baseline for score in matrix.scores.values()]
    flagged = [pair for pair, ratio in zip(matrix.scores, ratios) if ratio > threshold]
    max_ratio = max(ratios)
    if not flagged:
        return MatrixFinding(suspects=(), flagged_pairs=(), baseline=baseline, max_ratio=max_ratio)

    # Per-worker flagged/observed tallies over rows (as src) and columns
    # (as dst).
    observed: dict[Worker, int] = {}
    hit: dict[Worker, int] = {}
    for (src, dst), _score in matrix.scores.items():
        observed[src] = observed.get(src, 0) + 1
        observed[dst] = observed.get(dst, 0) + 1
    for src, dst in flagged:
        hit[src] = hit.get(src, 0) + 1
        hit[dst] = hit.get(dst, 0) + 1

    worker_suspects = [
        worker
        for worker, hits in hit.items()
        if hits / observed[worker] >= row_fraction and hits >= 2
    ]

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
    explained = set(worker_suspects) | {
        (node, nic) for node, nic in worker_suspects
    }
    for src, dst in flagged:
        if src in explained or dst in explained or src[0] in node_suspects or dst[0] in node_suspects:
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
        flagged_pairs=tuple(flagged),
        baseline=baseline,
        max_ratio=max_ratio,
    )
