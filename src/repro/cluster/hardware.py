"""Hardware inventory objects: GPUs, NICs, nodes.

These carry identity and *health* state.  The simulator's data plane
lives in :mod:`repro.netsim`; the objects here are what the fault
injector degrades and what C4D's steering service isolates and replaces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ComponentHealth(enum.Enum):
    """Coarse health state used by steering and scheduling."""

    HEALTHY = "healthy"
    ISOLATED = "isolated"  # removed from scheduling by the steering service


@dataclass
class Gpu:
    """One GPU.  ``compute_scale`` < 1.0 models a slow (defective) part."""

    node_id: int
    index: int
    compute_scale: float = 1.0


@dataclass
class Nic:
    """A dual-port RDMA NIC (the BlueField-3 stand-in)."""

    node_id: int
    index: int

    @property
    def ip_address(self) -> str:
        """Deterministic bonded-interface IP used in five-tuples."""
        return f"10.{self.index}.{self.node_id // 256}.{self.node_id % 256}"


@dataclass
class Node:
    """A compute node: GPUs + NICs + an aggregate health view."""

    node_id: int
    gpus: list[Gpu]
    nics: list[Nic]
    health: ComponentHealth = ComponentHealth.HEALTHY

    @classmethod
    def build(cls, node_id: int, gpus_per_node: int, nics_per_node: int) -> "Node":
        """Construct a healthy node with the given device counts."""
        gpus = [Gpu(node_id=node_id, index=i) for i in range(gpus_per_node)]
        nics = [Nic(node_id=node_id, index=i) for i in range(nics_per_node)]
        return cls(node_id=node_id, gpus=gpus, nics=nics)

    @property
    def name(self) -> str:
        """Stable identifier, e.g. ``node3``."""
        return f"node{self.node_id}"

    @property
    def is_schedulable(self) -> bool:
        """True if the node can host training workers."""
        return self.health is ComponentHealth.HEALTHY

    def worst_gpu_scale(self) -> float:
        """Slowest GPU's compute scale (gates the node's compute speed in
        tightly synchronized kernels)."""
        return min(gpu.compute_scale for gpu in self.gpus)

    def isolate(self) -> None:
        """Remove the node from scheduling (C4D steering action)."""
        self.health = ComponentHealth.ISOLATED
