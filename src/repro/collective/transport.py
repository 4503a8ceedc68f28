"""Connections and QPs mapped onto simulator flows.

A :class:`Connection` is the long-lived transport relationship between a
(src node, NIC) and a (dst node, NIC) inside one communicator — the
"small number of long-lived flows" whose predictability makes C4P's
global traffic engineering feasible (§III-B).  Each connection holds the
QP allocations handed out by the path selector; every collective
operation sends its per-edge traffic as one simulator flow per QP,
weighted by the QP's load share (the knob C4P's dynamic load balancer
turns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collective.selectors import PathRequest, QpAllocation
from repro.netsim.flows import Flow, FlowState


@dataclass
class Connection:
    """A live transport connection with its QP allocations."""

    request: PathRequest
    allocations: list[QpAllocation]
    src_ip: str
    dst_ip: str
    #: Flows currently in flight for this connection (one per QP per op).
    active_flows: list[Flow] = field(default_factory=list)
    #: EWMA of achieved per-QP rate in bits/s, keyed by QP number — the
    #: message-completion-time signal C4P's dynamic load balancer reads.
    qp_rate_ewma: dict[int, float] = field(default_factory=dict)

    @property
    def key(self) -> tuple[int, int, int, int]:
        """(src_node, src_nic, dst_node, dst_nic)."""
        req = self.request
        return (req.src_node, req.src_nic, req.dst_node, req.dst_nic)

    @property
    def total_weight(self) -> float:
        """Sum of QP weights (load shares are weight / total)."""
        return sum(alloc.weight for alloc in self.allocations)

    def qp_share(self, alloc: QpAllocation) -> float:
        """Fraction of the connection's traffic carried by one QP."""
        return alloc.weight / self.total_weight

    def observe_rate(self, qp_num: int, rate: float, alpha: float = 0.5) -> None:
        """Fold one completed transfer's achieved rate into the EWMA."""
        if rate <= 0:
            return
        previous = self.qp_rate_ewma.get(qp_num)
        if previous is None:
            self.qp_rate_ewma[qp_num] = rate
        else:
            self.qp_rate_ewma[qp_num] = alpha * rate + (1 - alpha) * previous

    def prune_finished(self) -> None:
        """Drop completed/stalled-forever flows from the active list."""
        self.active_flows = [
            flow for flow in self.active_flows if flow.state == FlowState.ACTIVE
        ]

    def set_qp_weight(self, alloc: QpAllocation, weight: float) -> None:
        """Change a QP's load share, also updating its in-flight flows.

        This is the dynamic-load-balance primitive: shifting weight
        between QPs redistributes both future and in-flight traffic
        (max-min fairness honours flow weights immediately).
        """
        if weight <= 0:
            raise ValueError("weight must be positive")
        alloc.weight = weight
        for flow in self.active_flows:
            if flow.metadata.get("qp") is alloc:
                flow.weight = weight

