"""Anomaly events produced by C4D's detectors."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class AnomalyType(enum.Enum):
    """The four syndromes C4D distinguishes (paper §III-A)."""

    COMM_HANG = "communication_hang"
    NONCOMM_HANG = "non_communication_hang"
    COMM_SLOW = "communication_slow"
    NONCOMM_SLOW = "non_communication_slow"


class SuspectKind(enum.Enum):
    """Granularity of a localized suspect."""

    NODE = "node"
    WORKER = "worker"  # a (node, gpu/nic) pair
    CONNECTION = "connection"  # a specific worker pair
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Suspect:
    """A localized faulty component.

    ``node`` is always set for NODE/WORKER suspects; ``device`` narrows
    a WORKER suspect to a GPU/NIC index; CONNECTION suspects carry both
    endpoints.
    """

    kind: SuspectKind
    node: Optional[int] = None
    device: Optional[int] = None
    peer_node: Optional[int] = None
    peer_device: Optional[int] = None

    def __str__(self) -> str:
        if self.kind is SuspectKind.NODE:
            return f"node{self.node}"
        if self.kind is SuspectKind.WORKER:
            return f"node{self.node}/dev{self.device}"
        if self.kind is SuspectKind.CONNECTION:
            return (
                f"node{self.node}/dev{self.device} -> "
                f"node{self.peer_node}/dev{self.peer_device}"
            )
        return "unknown"


@dataclass(frozen=True)
class Anomaly:
    """One detected anomaly, ready for steering and offline RCA."""

    anomaly_type: AnomalyType
    comm_id: str
    detected_at: float
    suspects: tuple[Suspect, ...]
    #: Detector-specific quantitative evidence (ratios, wait times, ...).
    evidence: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def suspect_nodes(self) -> list[int]:
        """Distinct nodes implicated by the suspects."""
        nodes = []
        for suspect in self.suspects:
            if suspect.node is not None and suspect.node not in nodes:
                nodes.append(suspect.node)
        return nodes
