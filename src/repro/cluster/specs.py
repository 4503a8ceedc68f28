"""Cluster hardware and fabric specifications.

The numbers mirror Table II of the paper: nodes with 8 NVIDIA H800 GPUs
and 8 BlueField-3 NICs, each NIC exposing two physical 200 Gbps ports
bonded into one logical 400 Gbps port, wired into a Fat-Tree Clos fabric
with a 1:1 oversubscription rate.  The NVLink fabric inside a node caps
achievable per-GPU bus bandwidth at ~362 Gbps (the paper's measured
peak).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.units import GBPS


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster and its fabric.

    Attributes
    ----------
    num_nodes:
        Number of compute nodes.
    gpus_per_node:
        GPUs per node (the paper's clusters use 8).
    nics_per_node:
        Dual-port NICs per node; one per GPU in the reference design.
    port_gbps:
        Line rate of one physical NIC port (200 Gbps for BlueField-3).
    rails:
        Number of leaf-switch *pairs*.  NIC ``j`` of every node attaches
        to rail ``j % rails``; each rail has a left and a right leaf, and
        NIC port L/R connects to the corresponding leaf of the pair.
        The paper's 16-node testbed has 8 leaf switches → 4 rails.
    spines_per_rail:
        Spine switches reachable from each rail's leaves (the paper's
        Fig. 12 failure experiment counts "8 uplinks").
    uplink_ports_per_spine:
        Parallel physical links between a leaf and each spine.
    uplink_port_gbps:
        Line rate of one leaf-spine physical link.
    oversubscription:
        Downlink:uplink capacity ratio; 1.0 means a non-blocking 1:1
        fabric, 2.0 halves effective uplink capacity (the paper creates
        2:1 by disabling half the spines).
    nvlink_busbw_gbps:
        Effective per-GPU NVLink bus-bandwidth ceiling (362 Gbps
        measured in the paper).
    """

    num_nodes: int
    gpus_per_node: int = 8
    nics_per_node: int = 8
    port_gbps: float = 200.0
    rails: int = 4
    spines_per_rail: int = 8
    uplink_ports_per_spine: int = 4
    uplink_port_gbps: float = 200.0
    oversubscription: float = 1.0
    nvlink_busbw_gbps: float = 362.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.nics_per_node % self.rails != 0:
            raise ValueError(
                f"nics_per_node ({self.nics_per_node}) must be a multiple of rails ({self.rails})"
            )
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1.0")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_gpus(self) -> int:
        """Total GPU count across the cluster."""
        return self.num_nodes * self.gpus_per_node

    @property
    def nics_per_rail(self) -> int:
        """NICs of one node attached to each rail."""
        return self.nics_per_node // self.rails

    @property
    def port_capacity(self) -> float:
        """One physical NIC port's capacity in bits/s."""
        return self.port_gbps * GBPS

    @property
    def bonded_capacity(self) -> float:
        """Logical bonded NIC capacity in bits/s (two ports)."""
        return 2 * self.port_capacity

    @property
    def uplink_capacity(self) -> float:
        """One leaf-spine physical link's capacity in bits/s, after
        applying the oversubscription ratio."""
        return self.uplink_port_gbps * GBPS / self.oversubscription

    @property
    def leaf_downlink_ports(self) -> int:
        """Host-facing ports per leaf switch."""
        return self.num_nodes * self.nics_per_rail

    @property
    def leaf_uplink_ports(self) -> int:
        """Spine-facing ports per leaf switch."""
        return self.spines_per_rail * self.uplink_ports_per_spine

    @property
    def nvlink_capacity(self) -> float:
        """Per-node NVLink stage capacity in bits/s.

        Each inter-node ring edge crosses the NVLink stage of both its
        endpoints, and up to ``nics_per_node`` channels are in flight per
        direction, so the stage must carry 2 x nics x per-channel ceiling
        for the per-channel ceiling to equal ``nvlink_busbw_gbps``.
        """
        return 2 * self.nics_per_node * self.nvlink_busbw_gbps * GBPS

#: The paper's controlled testbed: 16 nodes / 128 GPUs, 8 dedicated leaf
#: switches (4 rail pairs), 1:1 oversubscription (Table II, §IV-A).
TESTBED_16_NODES = ClusterSpec(num_nodes=16)


def pod_spec(num_nodes: int, oversubscription: float = 1.0) -> ClusterSpec:
    """A pod-scale spec (up to 512 GPUs in a two-tier subnet, §IV-A).

    Leaf uplink port counts are derived so the fabric is 1:1 at the
    physical level (uplink ports == downlink ports per leaf); the
    ``oversubscription`` parameter then scales uplink capacity down for
    deliberately congested configurations.
    """
    if num_nodes * 8 > 512:
        raise ValueError("a single pod accommodates at most 512 GPUs")
    base = ClusterSpec(num_nodes=num_nodes)
    ports = max(1, -(-num_nodes * base.nics_per_rail // base.spines_per_rail))
    return ClusterSpec(
        num_nodes=num_nodes,
        uplink_ports_per_spine=ports,
        oversubscription=oversubscription,
    )
