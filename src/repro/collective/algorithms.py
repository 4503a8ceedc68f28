"""Collective algorithms and their per-edge traffic factors.

The simulator needs, for each (operation, algorithm) pair, how many bits
cross every inter-node ring edge when each rank contributes ``size``
bits.  For the ring family this is the textbook accounting:

* allreduce      = reduce-scatter + all-gather = 2(n-1)/n x size
* reduce-scatter =                                (n-1)/n x size
* all-gather     =                                (n-1)/n x size
* broadcast      = pipelined chain              = size
* alltoall       = pairwise exchange; handled separately because its
  node-level traffic is all-to-all rather than ring-shaped.
* send/recv      = point-to-point;  size.

The bus-bandwidth metric reported by nccl-tests follows the same
convention: ``busbw = traffic_factor * size / time``, which makes busbw
directly comparable across operations and equal to the per-rank
bottleneck bandwidth for ring algorithms.
"""

from __future__ import annotations

import enum


class OpType(enum.Enum):
    """Collective operation types supported by the library."""

    ALLREDUCE = "allreduce"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_GATHER = "all_gather"
    BROADCAST = "broadcast"
    ALLTOALL = "alltoall"
    SEND_RECV = "send_recv"


class Algorithm(enum.Enum):
    """Communication algorithm used to realize an operation."""

    RING = "ring"
    PAIRWISE = "pairwise"
    PIPELINE = "pipeline"
    HALVING_DOUBLING = "halving_doubling"
    TREE = "tree"
    HIERARCHICAL = "hierarchical"


#: Which algorithms can realize each operation.
SUPPORTED_ALGORITHMS = {
    OpType.ALLREDUCE: (Algorithm.RING, Algorithm.HALVING_DOUBLING, Algorithm.HIERARCHICAL),
    OpType.REDUCE_SCATTER: (Algorithm.RING,),
    OpType.ALL_GATHER: (Algorithm.RING,),
    OpType.BROADCAST: (Algorithm.PIPELINE, Algorithm.TREE),
    OpType.ALLTOALL: (Algorithm.PAIRWISE,),
    OpType.SEND_RECV: (Algorithm.PIPELINE,),
}


#: Default algorithm per operation (the paper's benchmarks force ring).
DEFAULT_ALGORITHM = {
    OpType.ALLREDUCE: Algorithm.RING,
    OpType.REDUCE_SCATTER: Algorithm.RING,
    OpType.ALL_GATHER: Algorithm.RING,
    OpType.BROADCAST: Algorithm.PIPELINE,
    OpType.ALLTOALL: Algorithm.PAIRWISE,
    OpType.SEND_RECV: Algorithm.PIPELINE,
}


def traffic_factor(op: OpType, n_ranks: int) -> float:
    """Bits crossing each ring edge per bit of per-rank payload.

    Also the factor in the nccl-tests busbw formula.  ``n_ranks`` is the
    communicator size.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if n_ranks == 1:
        return 0.0
    n = float(n_ranks)
    if op is OpType.ALLREDUCE:
        return 2.0 * (n - 1.0) / n
    if op in (OpType.REDUCE_SCATTER, OpType.ALL_GATHER):
        return (n - 1.0) / n
    if op is OpType.BROADCAST:
        return 1.0
    if op is OpType.ALLTOALL:
        return (n - 1.0) / n
    if op is OpType.SEND_RECV:
        return 1.0
    raise ValueError(f"unknown op {op}")


def busbw(op: OpType, n_ranks: int, size_bits: float, seconds: float) -> float:
    """nccl-tests bus bandwidth in bits/s for a completed operation."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return traffic_factor(op, n_ranks) * size_bits / seconds


