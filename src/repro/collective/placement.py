"""Topology-aware rank placement.

The paper's first-line mitigation for traffic collisions is placing
communicating ranks close together (§III-B: NVLink first, then
topology-aware scheduling).  :func:`contiguous_ranks` builds the
node-contiguous rank ordering the collective engine expects.
"""

from __future__ import annotations

from typing import Sequence

from repro.collective.communicator import RankLocation


def contiguous_ranks(nodes: Sequence[int], gpus_per_node: int) -> list[RankLocation]:
    """Node-contiguous rank ordering over full nodes.

    Rank ``i`` lands on node ``nodes[i // gpus_per_node]``, GPU
    ``i % gpus_per_node`` — the layout a topology-aware scheduler
    produces, minimizing inter-node ring edges.
    """
    if gpus_per_node < 1:
        raise ValueError("gpus_per_node must be >= 1")
    return [
        RankLocation(node=node, gpu=gpu)
        for node in nodes
        for gpu in range(gpus_per_node)
    ]


