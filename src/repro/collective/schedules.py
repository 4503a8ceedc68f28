"""Multi-phase communication schedules for the collective algorithms.

The engine executes a collective as a sequence of *phases*; each phase
is a set of concurrent node-level transfers and phases are separated by
a barrier (the structure of recursive algorithms).  The ring family
collapses to a single steady-state phase — its pipelining means every
edge is busy for the whole operation — while halving-doubling and
pairwise alltoall are genuinely phased, and hierarchical allreduce
brackets its fabric ring with NVLink stages.

The paper's benchmarks force the ring algorithm (§IV-A) to make busbw
comparable; the other schedules exist because ACCL has them, and they
make good ablations: their traffic *concentrates* on fewer edges per
phase, which changes how collisions hurt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collective.algorithms import OpType, traffic_factor
from repro.collective.communicator import Communicator


@dataclass(frozen=True)
class Transfer:
    """One node-level transfer inside a phase.

    ``bits_per_channel`` is the payload each engaged NIC (channel)
    carries for this transfer.
    """

    src_node: int
    dst_node: int
    bits_per_channel: float


#: A phase is a set of transfers that run concurrently.
Phase = list[Transfer]


def ring_phases(comm: Communicator, op: OpType, size_bits: float) -> list[Phase]:
    """The pipelined ring as one steady-state phase.

    Each directed node edge carries ``traffic_factor x size / channels``
    over the operation; because chunks pipeline, all edges are busy
    simultaneously and the operation completes when the slowest edge
    drains.
    """
    channels = len(comm.channels())
    per_channel = traffic_factor(op, comm.size) * size_bits / channels
    phase = [
        Transfer(src, dst, per_channel) for src, dst in comm.ring_node_edges()
    ]
    return [phase] if phase else []


def halving_doubling_phases(comm: Communicator, size_bits: float) -> list[Phase]:
    """Recursive halving-doubling allreduce over the node ring.

    Requires a power-of-two node count.  Round ``k`` of the
    reduce-scatter half exchanges ``size / 2^(k+1)`` with the partner at
    distance ``2^k``; the all-gather half mirrors it.  Every rank both
    sends and receives in each round, so each round contributes one
    transfer per direction per node pair.

    Payloads carry a rank-level correction factor so total inter-node
    traffic matches the flat rank-level recursion (the node-level
    recursion alone would move ``2(1 - 1/n_nodes) x size`` instead of
    ``2(1 - 1/n_ranks) x size``), keeping busbw directly comparable with
    the ring algorithm.
    """
    nodes = comm.node_sequence
    n = len(nodes)
    if n < 2:
        return []
    if n & (n - 1):
        raise ValueError(f"halving-doubling needs a power-of-two node count, got {n}")
    channels = len(comm.channels())
    node_factor = 2.0 * (1.0 - 1.0 / n)
    correction = traffic_factor(OpType.ALLREDUCE, comm.size) / node_factor
    phases: list[Phase] = []
    # Reduce-scatter: distances 1, 2, 4, ... with shrinking payloads.
    distance = 1
    payload = correction * size_bits / 2.0
    while distance < n:
        phase: Phase = []
        for i, node in enumerate(nodes):
            phase.append(Transfer(node, nodes[i ^ distance], payload / channels))
        phases.append(phase)
        distance *= 2
        payload /= 2.0
    # All-gather: mirror image (payloads grow back).
    for phase in reversed(phases[:]):
        mirrored = [Transfer(t.src_node, t.dst_node, t.bits_per_channel) for t in phase]
        phases.append(mirrored)
    return phases


def pairwise_alltoall_phases(comm: Communicator, size_bits: float) -> list[Phase]:
    """Pairwise-exchange alltoall: one phase per non-zero node offset.

    In phase ``k`` every node sends its block for the node ``k``
    positions ahead; payload per ordered node pair is
    ``size x ranks_per_node / comm.size``.
    """
    nodes = comm.node_sequence
    n = len(nodes)
    if n < 2:
        return []
    channels = len(comm.channels())
    pair_bits = size_bits * comm.ranks_per_node / comm.size / channels
    phases: list[Phase] = []
    for offset in range(1, n):
        phases.append(
            [
                Transfer(nodes[i], nodes[(i + offset) % n], pair_bits)
                for i in range(n)
            ]
        )
    return phases


def hierarchical_allreduce_phases(
    comm: Communicator, size_bits: float
) -> tuple[float, list[Phase], float]:
    """Hierarchical allreduce: NVLink reduce, inter-node ring, NVLink bcast.

    Returns ``(intra_reduce_bits, inter_phases, intra_bcast_bits)``:
    the engine charges the intra-node stages to the NVLink budget and
    runs the inter-node ring over the fabric with the *reduced* payload
    (one rank's worth per node), on all channels.

    This is the paper's first-line optimization made explicit: "we
    minimize the network diameter by leveraging high-speed NVLink
    interconnects" (§III-B) — inter-node traffic shrinks by the local
    rank count.
    """
    nodes = comm.node_sequence
    channels = len(comm.channels())
    if len(nodes) < 2:
        return (size_bits, [], size_bits)
    n_nodes = len(nodes)
    inter_factor = 2.0 * (n_nodes - 1) / n_nodes
    per_channel = inter_factor * size_bits / channels
    phase = [
        Transfer(src, dst, per_channel)
        for src, dst in comm.ring_node_edges()
    ]
    return (size_bits, [phase], size_bits)
