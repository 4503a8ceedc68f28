"""Path selection: the interface C4P plugs into, and the ECMP baseline.

The paper's enhancement lets ACCL "issue path allocation requests for
communicating workers and set the source port accordingly" (§III-B).
:class:`PathSelector` is that seam: the transport asks the selector for
QP allocations when a connection is established, and notifies it when a
link dies so it can reroute in-flight traffic.

:class:`EcmpPathSelector` is the unmodified-fabric baseline: the source
port is an arbitrary ephemeral port, the bond driver puts one QP on each
physical port, and every switch hashes independently — so two flows of a
bonded NIC can land on the same receive port (Fig. 9's imbalance) and
concurrent jobs collide on spine uplinks (Fig. 10's degradation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.cluster.topology import ClusterTopology, PathChoice
from repro.netsim.flows import Flow
from repro.netsim.links import Link
from repro.netsim.routing import EcmpHasher, FiveTuple

#: RoCEv2 destination UDP port.
ROCE_DST_PORT = 4791

_qp_counter = itertools.count(1000)


@dataclass(frozen=True)
class PathRequest:
    """A connection-establishment request sent to the selector."""

    comm_id: str
    job_id: str
    src_node: int
    src_nic: int
    dst_node: int
    dst_nic: int
    num_qps: int


@dataclass
class QpAllocation:
    """One QP's placement: identity, source port, and resolved route."""

    qp_num: int
    src_port: int
    five_tuple: FiveTuple
    choice: PathChoice
    path: list[tuple]
    weight: float = 1.0


class PathSelector(Protocol):
    """Strategy deciding where connections' QPs run."""

    def allocate(self, request: PathRequest) -> list[QpAllocation]:
        """Allocate ``request.num_qps`` QPs for a new connection."""

    def on_link_down(self, link: Link, flows: Sequence[Flow]) -> None:
        """React to a link failure affecting ``flows`` (reroute or not)."""

    def release(self, request: PathRequest, allocations: Sequence[QpAllocation]) -> None:
        """Return path resources when a connection closes."""


class EcmpPathSelector:
    """Baseline selection: ephemeral ports + independent ECMP hashing.

    Parameters
    ----------
    topology:
        The built cluster.
    seed:
        Salt for the deterministic ephemeral-port generator.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self._port_hasher = EcmpHasher(seed=seed ^ 0x5EED)

    def allocate(self, request: PathRequest) -> list[QpAllocation]:
        """One QP per physical port (round-robin), ECMP-routed."""
        src_nic_obj = self.topology.node(request.src_node).nics[request.src_nic]
        dst_nic_obj = self.topology.node(request.dst_node).nics[request.dst_nic]
        allocations: list[QpAllocation] = []
        for q in range(request.num_qps):
            src_port = self._ephemeral_port(request, q)
            five_tuple = FiveTuple(
                src_ip=src_nic_obj.ip_address,
                dst_ip=dst_nic_obj.ip_address,
                src_port=src_port,
                dst_port=ROCE_DST_PORT,
            )
            # The bond driver pins QP q to physical port q % 2; the fabric
            # then hashes the rest of the route.
            side = q % 2
            choice = self.topology.ecmp_choice(
                request.src_node,
                request.src_nic,
                request.dst_node,
                request.dst_nic,
                five_tuple,
                src_side=side,
            )
            path = self.topology.resolve_path(
                request.src_node, request.src_nic, request.dst_node, request.dst_nic, choice
            )
            allocations.append(
                QpAllocation(
                    qp_num=next(_qp_counter),
                    src_port=src_port,
                    five_tuple=five_tuple,
                    choice=choice,
                    path=path,
                )
            )
        return allocations

    def on_link_down(self, link: Link, flows: Sequence[Flow]) -> None:
        """ECMP reconvergence: re-walk each affected flow's hash choices.

        The deterministic hash walk lands the displaced flows on a small
        set of surviving links — the clumpy rerouting the paper observes
        in Fig. 13a.
        """
        for flow in flows:
            request: PathRequest | None = flow.metadata.get("request")
            alloc: QpAllocation | None = flow.metadata.get("qp")
            if request is None or alloc is None:
                continue
            choice = self.topology.ecmp_choice(
                request.src_node,
                request.src_nic,
                request.dst_node,
                request.dst_nic,
                alloc.five_tuple,
                src_side=alloc.choice.src_side,
            )
            path = self.topology.resolve_path(
                request.src_node, request.src_nic, request.dst_node, request.dst_nic, choice
            )
            alloc.choice = choice
            alloc.path = path
            flow.reroute(path)

    def release(self, request: PathRequest, allocations: Sequence[QpAllocation]) -> None:
        """No shared state to return for the ECMP baseline."""

    def _ephemeral_port(self, request: PathRequest, q: int) -> int:
        key = FiveTuple(
            src_ip=f"{request.comm_id}|{request.src_node}/{request.src_nic}",
            dst_ip=f"{request.dst_node}/{request.dst_nic}",
            src_port=q,
            dst_port=0,
        )
        return 49152 + self._port_hasher.hash_value(key, stage="ephemeral") % 16384
