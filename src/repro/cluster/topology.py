"""Clos/Fat-Tree topology: naming, link installation, path computation.

The fabric layout follows §II-D and Table II of the paper:

* every dual-port NIC attaches to a *pair* of leaf switches (left port →
  left leaf, right port → right leaf) — the "dual-ToR" design that doubles
  availability and spine count;
* NIC ``j`` of every node lands on rail ``j % rails``; each rail's leaf
  pair connects to ``spines_per_rail`` spine switches through
  ``uplink_ports_per_spine`` parallel physical links;
* both leaves of a pair reach the *same* spines, so a packet descending
  from a spine may arrive at either physical port of the destination's
  bonded NIC — the exact mechanism behind the bonded-port imbalance C4P
  eliminates (Fig. 9).

Link ids are tuples::

    ("hup", node, nic, side)          host port -> leaf (uplink)
    ("hdn", node, nic, side)          leaf -> host port (downlink)
    ("lup", rail, side, spine, k)     leaf -> spine, k-th parallel port
    ("sdn", rail, spine, side, k)     spine -> leaf, k-th parallel port
    ("nvl", node)                     per-node NVLink stage (virtual)

where ``side`` is 0 (left) or 1 (right).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.hardware import Node
from repro.cluster.specs import ClusterSpec
from repro.netsim.network import FlowNetwork
from repro.netsim.routing import EcmpHasher, FiveTuple


@dataclass(frozen=True)
class PathChoice:
    """One fully resolved route between two NICs on the same rail."""

    src_side: int
    spine: int
    up_port: int
    dst_side: int
    down_port: int


class ClusterTopology:
    """A built cluster: inventory + fabric naming + routing."""

    def __init__(
        self,
        spec: ClusterSpec,
        network: FlowNetwork,
        ecmp_seed: int = 0,
    ) -> None:
        self.spec = spec
        self.network = network
        self.ecmp = EcmpHasher(seed=ecmp_seed)
        self.nodes: list[Node] = [
            Node.build(node_id, spec.gpus_per_node, spec.nics_per_node)
            for node_id in range(spec.num_nodes)
        ]
        #: Spines administratively removed (used to create the 2:1
        #: oversubscription configuration of Fig. 10b), per rail.
        self.disabled_spines: dict[int, set[int]] = {r: set() for r in range(spec.rails)}
        self._install_links()

    # ------------------------------------------------------------------
    # Naming helpers
    # ------------------------------------------------------------------
    @staticmethod
    def host_up(node: int, nic: int, side: int) -> tuple:
        """Link id: host NIC port → leaf."""
        return ("hup", node, nic, side)

    @staticmethod
    def host_down(node: int, nic: int, side: int) -> tuple:
        """Link id: leaf → host NIC port."""
        return ("hdn", node, nic, side)

    @staticmethod
    def leaf_up(rail: int, side: int, spine: int, k: int) -> tuple:
        """Link id: leaf → spine parallel port ``k``."""
        return ("lup", rail, side, spine, k)

    @staticmethod
    def spine_down(rail: int, spine: int, side: int, k: int) -> tuple:
        """Link id: spine → leaf parallel port ``k``."""
        return ("sdn", rail, spine, side, k)

    @staticmethod
    def nvlink(node: int) -> tuple:
        """Link id: per-node NVLink stage."""
        return ("nvl", node)

    def rail_of(self, nic: int) -> int:
        """Rail (leaf-pair index) serving NIC index ``nic``."""
        return nic % self.spec.rails

    def node(self, node_id: int) -> Node:
        """Inventory record for a node."""
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # Link installation
    # ------------------------------------------------------------------
    def _install_links(self) -> None:
        spec = self.spec
        for node in range(spec.num_nodes):
            self.network.add_link(
                self.nvlink(node), spec.nvlink_capacity, description=f"node{node} NVLink stage"
            )
            for nic in range(spec.nics_per_node):
                for side in (0, 1):
                    self.network.add_link(
                        self.host_up(node, nic, side),
                        spec.port_capacity,
                        description=f"node{node}/nic{nic} port{side} uplink",
                    )
                    self.network.add_link(
                        self.host_down(node, nic, side),
                        spec.port_capacity,
                        description=f"node{node}/nic{nic} port{side} downlink",
                    )
        for rail in range(spec.rails):
            for side in (0, 1):
                for spine in range(spec.spines_per_rail):
                    for k in range(spec.uplink_ports_per_spine):
                        self.network.add_link(
                            self.leaf_up(rail, side, spine, k),
                            spec.uplink_capacity,
                            description=f"rail{rail} leaf{side} -> spine{spine} port{k}",
                        )
                        self.network.add_link(
                            self.spine_down(rail, spine, side, k),
                            spec.uplink_capacity,
                            description=f"rail{rail} spine{spine} -> leaf{side} port{k}",
                        )

    # ------------------------------------------------------------------
    # Degradation hooks (used by the fault injector)
    # ------------------------------------------------------------------
    def set_port_scale(self, node: int, nic: int, side: int, scale: float) -> None:
        """Scale the capacity of one physical NIC port (both directions).

        ``scale`` is relative to the spec's nominal port capacity, so
        calls are idempotent rather than compounding.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        nominal = self.spec.port_capacity
        self.network.set_link_capacity(self.host_up(node, nic, side), nominal * scale)
        self.network.set_link_capacity(self.host_down(node, nic, side), nominal * scale)

    def disable_spine(self, rail: int, spine: int) -> None:
        """Administratively remove a spine from a rail (fails its links)."""
        self.disabled_spines[rail].add(spine)
        for side in (0, 1):
            for k in range(self.spec.uplink_ports_per_spine):
                self.network.link(self.leaf_up(rail, side, spine, k)).fail()
                self.network.link(self.spine_down(rail, spine, side, k)).fail()

    def enabled_spines(self, rail: int) -> list[int]:
        """Spines currently in service on a rail."""
        return [
            s for s in range(self.spec.spines_per_rail) if s not in self.disabled_spines[rail]
        ]

    # ------------------------------------------------------------------
    # Path construction
    # ------------------------------------------------------------------
    def resolve_path(
        self,
        src_node: int,
        src_nic: int,
        dst_node: int,
        dst_nic: int,
        choice: PathChoice,
    ) -> list[tuple]:
        """Materialize a route into an ordered list of link ids.

        The route starts and ends on the two nodes' NVLink stages.
        """
        rail = self.rail_of(src_nic)
        if rail != self.rail_of(dst_nic):
            raise ValueError(
                f"cross-rail path requested: nic{src_nic} (rail {rail}) -> "
                f"nic{dst_nic} (rail {self.rail_of(dst_nic)})"
            )
        return [
            self.nvlink(src_node),
            self.host_up(src_node, src_nic, choice.src_side),
            self.leaf_up(rail, choice.src_side, choice.spine, choice.up_port),
            self.spine_down(rail, choice.spine, choice.dst_side, choice.down_port),
            self.host_down(dst_node, dst_nic, choice.dst_side),
            self.nvlink(dst_node),
        ]

    # ------------------------------------------------------------------
    # ECMP routing (the baseline the paper improves upon)
    # ------------------------------------------------------------------
    def ecmp_choice(
        self,
        src_node: int,
        src_nic: int,
        dst_node: int,
        dst_nic: int,
        five_tuple: FiveTuple,
        src_side: Optional[int] = None,
    ) -> PathChoice:
        """Route a flow the way the unmodified fabric would.

        The bond driver hashes the flow onto a transmit port (unless
        ``src_side`` pins it), the leaf hashes onto a (spine, port)
        uplink, and the spine hashes onto a (side, port) downlink.  Dead
        links are left out of the hash, modelling ECMP reconvergence
        (which is exactly the clumpy rerouting visible in the paper's
        Fig. 13a).
        """
        rail = self.rail_of(src_nic)
        spec = self.spec
        if src_side is None:
            src_side = self.ecmp.choose(five_tuple, 2, stage=f"bond:{src_node}:{src_nic}")

        # Hash over the *live* next-hop set, as real switches do: the
        # ECMP group shrinks when members fail, so surviving flows
        # rehash uniformly over what remains.
        up_members = [
            (spine, k)
            for spine in range(spec.spines_per_rail)
            for k in range(spec.uplink_ports_per_spine)
            if self.network.link(self.leaf_up(rail, src_side, spine, k)).is_up
        ]
        if not up_members:
            raise RuntimeError(f"no live uplink on rail {rail} side {src_side}")
        up_idx = self.ecmp.choose(five_tuple, len(up_members), stage=f"up:{rail}:{src_side}")
        spine, up_port = up_members[up_idx]

        down_members = [
            (side, k)
            for side in (0, 1)
            for k in range(spec.uplink_ports_per_spine)
            if self.network.link(self.spine_down(rail, spine, side, k)).is_up
        ]
        if not down_members:
            raise RuntimeError(f"no live downlink from spine {spine} on rail {rail}")
        down_idx = self.ecmp.choose(
            five_tuple, len(down_members), stage=f"down:{rail}:{spine}"
        )
        dst_side, down_port = down_members[down_idx]

        return PathChoice(src_side, spine, up_port, dst_side, down_port)

    # ------------------------------------------------------------------
    # Introspection used by C4P and reports
    # ------------------------------------------------------------------
    def leaf_uplinks(self, rail: int, side: int) -> list[tuple]:
        """All leaf→spine link ids of one leaf switch."""
        return [
            self.leaf_up(rail, side, spine, k)
            for spine in range(self.spec.spines_per_rail)
            for k in range(self.spec.uplink_ports_per_spine)
        ]
