"""Parallelization plans: TP x PP x DP decompositions.

Mirrors the Megatron/DeepSpeed configurations of the paper's Fig. 14
jobs: tensor parallelism inside a node (NVLink), pipeline parallelism
over contiguous node groups, data parallelism across replicas, with
optional ZeRO partitioning and gradient accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collective.communicator import RankLocation


@dataclass(frozen=True)
class ParallelismPlan:
    """How a job decomposes over GPUs.

    Attributes
    ----------
    tp:
        Tensor-parallel group size (must fit inside a node).
    pp:
        Pipeline-parallel stages.
    dp:
        Data-parallel replica count.
    grad_accumulation:
        Micro-batches per optimizer step; the DP gradient exchange
        happens once per step, so communication cost is amortized by
        this factor (the Fig. 14 Job3 effect).
    zero:
        DeepSpeed ZeRO optimizer partitioning (changes the exchange from
        allreduce to reduce-scatter + all-gather; same volume on the
        ring, so the fabric sees equivalent traffic).
    ep:
        Expert-parallel group size for mixture-of-experts models; EP
        groups exchange tokens via alltoall each step.  Must divide the
        world size.
    """

    tp: int = 1
    pp: int = 1
    dp: int = 1
    grad_accumulation: int = 1
    zero: bool = False
    ep: int = 1

    def __post_init__(self) -> None:
        for field_name in ("tp", "pp", "dp", "grad_accumulation", "ep"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")
        if self.ep > 1 and self.world_size % self.ep != 0:
            raise ValueError("ep must divide the world size")

    @property
    def world_size(self) -> int:
        """Total GPU count."""
        return self.tp * self.pp * self.dp

    def nodes_required(self, gpus_per_node: int) -> int:
        """Nodes needed for this plan."""
        if self.world_size % gpus_per_node != 0 and self.world_size > gpus_per_node:
            raise ValueError(
                f"world size {self.world_size} does not pack into nodes of {gpus_per_node}"
            )
        return max(1, self.world_size // gpus_per_node)

    @property
    def dp_shard_fraction(self) -> float:
        """Fraction of the model each DP rank's gradient exchange covers."""
        return 1.0 / (self.tp * self.pp)

    def dp_groups(self, nodes: list[int], gpus_per_node: int) -> list[list[RankLocation]]:
        """Build the data-parallel communicator rank lists.

        Layout: TP packs consecutive GPUs of one node; PP takes
        contiguous node blocks; DP strides across replicas.  With
        ``tp == gpus_per_node`` each DP group runs one GPU index per
        node (rail-aligned), so concurrent DP groups cover all NICs.
        """
        if self.tp > gpus_per_node:
            raise ValueError("tensor parallelism must fit inside a node")
        if len(nodes) * gpus_per_node < self.world_size:
            raise ValueError("not enough nodes for the plan")
        # GPUs of one pipeline replica occupy tp*pp consecutive GPU slots.
        replica_gpus = self.tp * self.pp
        groups: list[list[RankLocation]] = []
        # One DP group per (pp stage, tp rank): its members sit at the
        # same offset within each replica block.
        for offset in range(replica_gpus):
            group: list[RankLocation] = []
            for replica in range(self.dp):
                slot = replica * replica_gpus + offset
                group.append(
                    RankLocation(node=nodes[slot // gpus_per_node], gpu=slot % gpus_per_node)
                )
            groups.append(group)
        return groups

    def ep_groups(self, nodes: list[int], gpus_per_node: int) -> list[list[RankLocation]]:
        """Expert-parallel groups: consecutive rank blocks of size ``ep``.

        Node-contiguous blocks keep most expert traffic close (the
        topology-aware placement the paper advocates); groups larger
        than a node exchange tokens over the fabric via alltoall.
        """
        if self.ep == 1:
            return []
        if len(nodes) * gpus_per_node < self.world_size:
            raise ValueError("not enough nodes for the plan")
        groups: list[list[RankLocation]] = []
        for base in range(0, self.world_size, self.ep):
            group = [
                RankLocation(
                    node=nodes[(base + i) // gpus_per_node],
                    gpu=(base + i) % gpus_per_node,
                )
                for i in range(self.ep)
            ]
            groups.append(group)
        return groups

    def pp_boundaries(self, nodes: list[int], gpus_per_node: int) -> list[tuple[RankLocation, RankLocation]]:
        """Adjacent-stage (sender, receiver) pairs for pipeline traffic."""
        if self.pp == 1:
            return []
        replica_gpus = self.tp * self.pp
        stage_gpus = self.tp
        pairs: list[tuple[RankLocation, RankLocation]] = []
        for replica in range(self.dp):
            base = replica * replica_gpus
            for stage in range(self.pp - 1):
                src_slot = base + stage * stage_gpus
                dst_slot = base + (stage + 1) * stage_gpus
                pairs.append(
                    (
                        RankLocation(
                            node=nodes[src_slot // gpus_per_node], gpu=src_slot % gpus_per_node
                        ),
                        RankLocation(
                            node=nodes[dst_slot // gpus_per_node], gpu=dst_slot % gpus_per_node
                        ),
                    )
                )
        return pairs
