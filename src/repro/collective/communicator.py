"""Communicators: ordered groups of ranks spanning nodes.

A communicator is the unit of collective communication.  Its ranks are
placed on (node, gpu) pairs; ring algorithms traverse nodes in the order
the ranks were given (topology-aware schedulers hand in node-contiguous
orderings, see :mod:`repro.collective.placement`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class RankLocation:
    """Physical placement of one rank.

    The reference design pairs GPU ``i`` with NIC ``i``, so the GPU index
    doubles as the NIC (rail) index for network communication.
    """

    node: int
    gpu: int

    @property
    def nic(self) -> int:
        """NIC index used by this rank for inter-node traffic."""
        return self.gpu


class Communicator:
    """An ordered set of ranks participating in collectives together."""

    def __init__(self, ranks: Sequence[RankLocation], comm_id: str) -> None:
        if not ranks:
            raise ValueError("a communicator needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate rank locations in communicator")
        self.ranks: list[RankLocation] = list(ranks)
        self.comm_id = comm_id
        self._seq = itertools.count()
        # Node sequence in first-appearance order (ring order at node level).
        seen: dict[int, None] = {}
        for rank in self.ranks:
            seen.setdefault(rank.node, None)
        self.node_sequence: list[int] = list(seen)
        self._local_gpus: dict[int, list[int]] = {}
        for rank in self.ranks:
            self._local_gpus.setdefault(rank.node, []).append(rank.gpu)
        counts = {len(gpus) for gpus in self._local_gpus.values()}
        if len(counts) != 1:
            raise ValueError(
                "unbalanced communicator: all nodes must host the same number of ranks"
            )

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.ranks)

    @property
    def num_nodes(self) -> int:
        """Number of distinct nodes."""
        return len(self.node_sequence)

    @property
    def ranks_per_node(self) -> int:
        """Local rank count per node (uniform by construction)."""
        return self.size // self.num_nodes

    @property
    def is_single_node(self) -> bool:
        """True when all ranks live on one node (NVLink-only traffic)."""
        return self.num_nodes == 1

    def local_gpus(self, node: int) -> list[int]:
        """GPU indices this communicator uses on ``node``."""
        return list(self._local_gpus[node])

    def channels(self) -> list[int]:
        """NIC/rail indices carrying this communicator's inter-node traffic.

        One channel per local rank: channel ``c`` crosses node boundaries
        on the NIC of the c-th local GPU (rail-aligned, as in the
        rail-optimized designs ACCL targets).
        """
        return self.local_gpus(self.node_sequence[0])

    def ring_node_edges(self) -> list[tuple[int, int]]:
        """Directed node-level edges of the ring, in ring order.

        A two-node communicator yields both directions (the ring wraps);
        a single-node communicator yields no network edges.
        """
        nodes = self.node_sequence
        if len(nodes) <= 1:
            return []
        return [(nodes[i], nodes[(i + 1) % len(nodes)]) for i in range(len(nodes))]

    def next_seq(self) -> int:
        """Monotonic per-communicator operation sequence number."""
        return next(self._seq)

    def __repr__(self) -> str:
        return (
            f"Communicator({self.comm_id!r}, size={self.size}, "
            f"nodes={self.num_nodes})"
        )
