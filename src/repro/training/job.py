"""The BSP training-job step engine.

A :class:`TrainingJob` runs optimizer steps on the simulated cluster:
each step is a compute phase (analytic, per-node skew from degraded
GPUs/hosts) followed by the data-parallel gradient exchange executed as
real collective operations on the fabric — so communication cost
reflects whatever path selection, collisions, failures and load
balancing the fabric currently exhibits.  Tensor-parallel traffic stays
on NVLink and is folded into the effective compute throughput; pipeline
activations can be modelled explicitly via ``pp_activation_bits``.

Throughput is reported in samples/s, the unit of the paper's Fig. 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.collective.algorithms import OpType
from repro.collective.communicator import Communicator
from repro.collective.context import CollectiveContext, OpHandle
from repro.training.memory_checkpoint import InMemoryCheckpointer
from repro.training.models import DEFAULT_EFFECTIVE_FLOPS, ModelConfig, compute_seconds
from repro.training.parallelism import ParallelismPlan


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to run one training job.

    Attributes
    ----------
    name:
        Job label (shows up in communicator ids).
    model:
        The model being trained.
    plan:
        TP/PP/DP decomposition.
    global_batch:
        Samples per optimizer step across all replicas.
    effective_flops:
        Per-GPU effective FLOP/s (peak x MFU).
    pp_activation_bits:
        Activation payload crossing each pipeline-stage boundary per
        micro-batch (0 disables explicit PP traffic).
    ep_alltoall_bits:
        Token payload each rank exchanges within its expert-parallel
        group per step (dispatch + combine folded together; 0 disables
        EP traffic).
    ep_imbalance_std:
        Relative standard deviation of per-rank expert load: each step,
        each rank's compute is stretched by ``max(0, N(0, std))`` of the
        base compute time — the random token-routing imbalance that
        makes naive straggler detection misfire on MoE jobs (paper §V).
    """

    name: str
    model: ModelConfig
    plan: ParallelismPlan
    global_batch: float
    effective_flops: float = DEFAULT_EFFECTIVE_FLOPS
    pp_activation_bits: float = 0.0
    ep_alltoall_bits: float = 0.0
    ep_imbalance_std: float = 0.0


@dataclass
class StepBreakdown:
    """Timing of one completed optimizer step."""

    step_index: int
    start_time: float
    compute_seconds: float
    comm_seconds: float
    end_time: float

    @property
    def step_seconds(self) -> float:
        """Wall-clock (simulated) duration of the step."""
        return self.end_time - self.start_time


class TrainingJob:
    """One job's step loop bound to a collective context and nodes."""

    def __init__(
        self,
        spec: JobSpec,
        context: CollectiveContext,
        nodes: list[int],
        seed: int = 0,
        checkpointer: Optional["InMemoryCheckpointer"] = None,
        start_step: int = 0,
    ) -> None:
        gpus_per_node = context.topology.spec.gpus_per_node
        if len(nodes) < spec.plan.nodes_required(gpus_per_node):
            raise ValueError(
                f"job {spec.name!r} needs {spec.plan.nodes_required(gpus_per_node)} nodes, "
                f"got {len(nodes)}"
            )
        self.spec = spec
        self.context = context
        self.nodes = list(nodes)
        self.steps: list[StepBreakdown] = []
        self._gpus_per_node = gpus_per_node
        self._rng = np.random.default_rng(seed)
        self.checkpointer = checkpointer
        #: Nodes whose worker processes have died; their ranks never
        #: enter subsequent collectives, so the next operation hangs —
        #: the crash syndrome C4D detects.
        self.crashed_nodes: set[int] = set()
        self._dp_comms: list[Communicator] = []
        self._ep_comms: list[Communicator] = []
        self._build_communicators()
        self._pending_ops = 0
        self._step_index = start_step
        self._step_start = 0.0
        self._compute_done_at = 0.0
        self._target_steps = 0
        self._on_all_done: Optional[Callable[[], None]] = None

    def _build_communicators(self) -> None:
        plan = self.spec.plan
        groups = plan.dp_groups(self.nodes, self._gpus_per_node)
        for index, group in enumerate(groups):
            if len(group) < 2:
                continue  # dp=1: no gradient exchange
            self._dp_comms.append(
                self.context.communicator(group, comm_id=f"{self.spec.name}/dp{index}")
            )
        if plan.ep > 1 and self.spec.ep_alltoall_bits > 0:
            for index, group in enumerate(plan.ep_groups(self.nodes, self._gpus_per_node)):
                self._ep_comms.append(
                    self.context.communicator(group, comm_id=f"{self.spec.name}/ep{index}")
                )

    # ------------------------------------------------------------------
    # Step loop
    # ------------------------------------------------------------------
    def run_steps(self, count: int, on_all_done: Optional[Callable[[], None]] = None) -> None:
        """Queue ``count`` optimizer steps starting now.

        The caller drives ``context.network.run()``; completed steps
        accumulate in :attr:`steps`.  Step indices are absolute (a job
        restored from a checkpoint continues its global step count).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        self._target_steps = self._step_index + count
        self._on_all_done = on_all_done
        self._begin_step()

    def crash_node(self, node_id: int) -> None:
        """Kill the worker processes of one node.

        The node's ranks stop entering collectives; the job's next step
        hangs at the BSP barrier (exactly how a CUDA/ECC error surfaces
        to peers as an opaque NCCL error).
        """
        if node_id not in self.nodes:
            raise ValueError(f"node {node_id} is not part of this job")
        self.crashed_nodes.add(node_id)

    @property
    def current_step(self) -> int:
        """The absolute step index currently in flight (or next to run)."""
        return self._step_index

    def _absent_ranks_of(self, comm: Communicator) -> list[int]:
        if not self.crashed_nodes:
            return []
        return [
            rank
            for rank, location in enumerate(comm.ranks)
            if location.node in self.crashed_nodes
        ]

    def _compute_time_of_node(self, node_id: int, base: float) -> float:
        node = self.context.topology.node(node_id)
        return base / node.worst_gpu_scale() * node.host_slowdown

    def _begin_step(self) -> None:
        network = self.context.network
        self._step_start = network.now
        base_compute = compute_seconds(
            self.spec.model,
            self.spec.global_batch,
            self.spec.plan.world_size,
            self.spec.effective_flops,
        )
        per_node_compute = {
            node_id: self._compute_time_of_node(node_id, base_compute)
            for node_id in self.nodes
        }
        # Expert load imbalance: random per-rank compute stretch (token
        # routing varies step to step).
        ep_jitter: dict[tuple[int, int], float] = {}
        if self.spec.ep_imbalance_std > 0:
            for node_id in self.nodes:
                for gpu in range(self._gpus_per_node):
                    stretch = abs(self._rng.normal(0.0, self.spec.ep_imbalance_std))
                    ep_jitter[(node_id, gpu)] = base_compute * stretch
        self._compute_done_at = self._step_start + max(per_node_compute.values()) + (
            max(ep_jitter.values()) if ep_jitter else 0.0
        )

        if not self._dp_comms and not self._ep_comms:
            network.schedule_at(self._compute_done_at, self._step_done_no_comm)
            return

        def rank_offset(rank) -> float:
            return per_node_compute[rank.node] + ep_jitter.get((rank.node, rank.gpu), 0.0)

        grad_bits = self.spec.model.grad_bits(self.spec.plan.dp_shard_fraction)
        pp_pairs = []
        if self.spec.plan.pp > 1 and self.spec.pp_activation_bits > 0:
            pp_pairs = self.spec.plan.pp_boundaries(self.nodes, self._gpus_per_node)
        self._pending_ops = len(self._dp_comms) + len(self._ep_comms) + len(pp_pairs)
        for comm in self._dp_comms:
            offsets = [rank_offset(rank) for rank in comm.ranks]
            self.context.run_op(
                comm,
                OpType.ALLREDUCE,
                grad_bits,
                entry_offsets=offsets,
                on_complete=self._op_done,
                absent_ranks=self._absent_ranks_of(comm),
            )
        # Expert token exchange (dispatch + combine) within each EP group.
        for comm in self._ep_comms:
            offsets = [rank_offset(rank) for rank in comm.ranks]
            self.context.run_op(
                comm,
                OpType.ALLTOALL,
                self.spec.ep_alltoall_bits,
                entry_offsets=offsets,
                on_complete=self._op_done,
                absent_ranks=self._absent_ranks_of(comm),
            )
        # Pipeline activations: one aggregate transfer per stage boundary
        # per step (micro-batch pipelining is folded into the payload).
        for src, dst in pp_pairs:
            self.context.run_send_recv(
                src,
                dst,
                self.spec.pp_activation_bits * self.spec.plan.grad_accumulation,
                comm=self._dp_comms[0] if self._dp_comms else self.context.communicator([src, dst]),
                on_complete=self._op_done,
            )

    def _op_done(self, handle: OpHandle) -> None:
        self._pending_ops -= 1
        if self._pending_ops == 0:
            self._finish_step()

    def _step_done_no_comm(self) -> None:
        self._finish_step()

    def _finish_step(self) -> None:
        now = self.context.network.now
        compute = self._compute_done_at - self._step_start
        self.steps.append(
            StepBreakdown(
                step_index=self._step_index,
                start_time=self._step_start,
                compute_seconds=compute,
                comm_seconds=max(0.0, now - self._compute_done_at),
                end_time=now,
            )
        )
        save_cost = 0.0
        if self.checkpointer is not None:
            save_cost = self.checkpointer.maybe_save(self._step_index, now)
        self._step_index += 1
        if self._step_index < self._target_steps:
            if save_cost > 0:
                self.context.network.schedule(save_cost, self._begin_step)
            else:
                self._begin_step()
        elif self._on_all_done is not None:
            self._on_all_done()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def throughput_samples_per_second(self, skip: int = 0) -> float:
        """Mean samples/s over completed steps (optionally skipping warmup)."""
        steps = self.steps[skip:]
        if not steps:
            raise RuntimeError("no completed steps to report")
        total_time = sum(s.step_seconds for s in steps)
        return self.spec.global_batch * len(steps) / total_time

    def mean_comm_fraction(self, skip: int = 0) -> float:
        """Average share of step time spent in exposed communication."""
        steps = self.steps[skip:]
        if not steps:
            raise RuntimeError("no completed steps to report")
        return sum(s.comm_seconds / s.step_seconds for s in steps) / len(steps)
