"""The full Fig. 4 recovery loop, closed on the simulator.

"C4 agents monitor the operational status of training workers and
transmit the data to a centralized master.  The master then evaluates
the well-being of the training workers ... If any irregularities are
detected, it informs the job steering service to isolate the problematic
nodes and restart the job from the most recent valid checkpoint."

:class:`RecoveryOrchestrator` wires every piece together on the event
loop: a monitored :class:`~repro.training.job.TrainingJob`, the periodic
C4D master, the job steering service, and the in-memory checkpointer.
When a worker crashes mid-run the job's next collective hangs; C4D
localizes the missing rank; the steering service isolates the node and
swaps in a backup; the orchestrator pays the isolation+restart latency,
restores from the last snapshot, and resumes — and the resulting
timeline decomposes into exactly Table III's downtime components.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

from repro.collective.context import CollectiveContext
from repro.core.c4d.detectors import DetectorConfig
from repro.core.c4d.events import Anomaly, AnomalyType
from repro.core.c4d.master import C4DMaster
from repro.core.c4d.steering import (
    JobSteeringService,
    SteeringAction,
    SteeringConfig,
    SteeringFaultModel,
)
from repro.telemetry.agent import AgentPlane
from repro.telemetry.collector import CentralCollector
from repro.training.job import JobSpec, TrainingJob
from repro.training.memory_checkpoint import InMemoryCheckpointer
from repro.training.parallelism import ParallelismPlan
from repro.training.scheduler import ClusterScheduler

logger = logging.getLogger(__name__)

#: The orchestrated job's name in the scheduler and its communicator prefix.
JOB_NAME = "job"


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery episode's timeline."""

    crash_time: float
    detected_at: float
    #: What the steering service did: isolations, replacements, retries,
    #: dead-on-arrival spares, and when the job runs again (``ready_at``).
    action: SteeringAction
    restored_step: int
    lost_steps: int
    #: Corrupted snapshots skipped before a valid restore point was
    #: found (0 = newest snapshot restored cleanly).
    restore_fallbacks: int = 0

    @property
    def detection_seconds(self) -> float:
        """Crash-to-detection latency (the paper's tens of seconds)."""
        return self.detected_at - self.crash_time

    @property
    def downtime_seconds(self) -> float:
        """Crash-to-resume wall time."""
        return self.action.ready_at - self.crash_time


@dataclass
class RecoveryReport:
    """Outcome of a monitored run."""

    completed_steps: int
    target_steps: int
    events: list[RecoveryEvent] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        """True when every step eventually completed."""
        return self.completed_steps >= self.target_steps


class RecoveryOrchestrator:
    """Run a training job to completion through crashes.

    Parameters
    ----------
    scenario_topology:
        The cluster topology (its network drives the clock).
    scheduler:
        Node allocator; its reserved spares seed the steering service's
        backup pool.
    spec:
        The training job.
    detector_config / steering_config:
        C4D thresholds and recovery latencies.
    checkpointer:
        Snapshot engine; the job resumes from its latest snapshot.
    evaluation_interval:
        How often the C4D master evaluates, in simulated seconds.
    steering_faults:
        Optional failure injection for the recovery actions themselves
        (isolation timeouts retried with capped exponential backoff,
        replacements dead on arrival).  ``None`` gives the happy path.
    """

    def __init__(
        self,
        topology,
        scheduler: ClusterScheduler,
        spec: JobSpec,
        detector_config: Optional[DetectorConfig] = None,
        steering_config: Optional[SteeringConfig] = None,
        checkpointer: Optional[InMemoryCheckpointer] = None,
        evaluation_interval: float = 5.0,
        steering_faults: Optional[SteeringFaultModel] = None,
    ) -> None:
        self.topology = topology
        self.network = topology.network
        self.scheduler = scheduler
        self.spec = spec
        self.detector_config = detector_config or DetectorConfig(hang_timeout=30.0)
        self.checkpointer = checkpointer or InMemoryCheckpointer(interval_steps=10)
        self.evaluation_interval = evaluation_interval
        # Every hang verdict of the current incarnation is acted on, so
        # the steering service suppresses no duplicates.
        self.steering = JobSteeringService(
            topology,
            backup_nodes=list(scheduler.backup_nodes),
            config=steering_config,
            faults=steering_faults,
            dedup_window=0.0,
        )

        self.collector = CentralCollector()
        self.agent_plane = AgentPlane(self.collector, clock=lambda: self.network.now)
        self.master = C4DMaster(self.collector, self.detector_config)
        self.report: Optional[RecoveryReport] = None
        self.job: Optional[TrainingJob] = None
        self._target_steps = 0
        self._incarnation = 0
        self._comm_prefix = JOB_NAME
        self._crash_time: Optional[float] = None
        self._watching = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def start(self, num_nodes: int, total_steps: int) -> RecoveryReport:
        """Allocate, launch and arm monitoring.  Returns the live report.

        The caller drives ``topology.network.run(until=...)``; the report
        fills in as the simulation progresses.
        """
        if self.report is not None:
            raise RuntimeError("orchestrator already started")
        self._target_steps = total_steps
        self.report = RecoveryReport(completed_steps=0, target_steps=total_steps)
        allocation = self.scheduler.allocate(JOB_NAME, num_nodes)
        self._launch(list(allocation.nodes), total_steps, restored_step=0)
        self._arm_watchdog()
        return self.report

    def crash_node(self, node_id: int) -> None:
        """Inject a worker crash into the current incarnation."""
        if self.job is None:
            raise RuntimeError("no job running")
        self._crash_time = self.network.now
        self.job.crash_node(node_id)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _launch(self, nodes: list[int], remaining_steps: int, restored_step: int) -> None:
        self._incarnation += 1
        self._comm_prefix = f"{JOB_NAME}#{self._incarnation}"
        context = CollectiveContext(
            self.topology,
            sink=self.agent_plane,
            job_id=self._comm_prefix,
        )
        plan, global_batch = self._fit_plan(len(nodes))
        spec = JobSpec(
            name=self._comm_prefix,
            model=self.spec.model,
            plan=plan,
            global_batch=global_batch,
            effective_flops=self.spec.effective_flops,
            pp_activation_bits=self.spec.pp_activation_bits,
            ep_alltoall_bits=self.spec.ep_alltoall_bits,
            ep_imbalance_std=self.spec.ep_imbalance_std,
        )
        self.job = TrainingJob(
            spec,
            context,
            nodes=nodes,
            checkpointer=self.checkpointer,
            start_step=restored_step,
        )
        self.job.run_steps(remaining_steps, on_all_done=self._job_finished)

    def _fit_plan(self, num_nodes: int) -> tuple[ParallelismPlan, float]:
        """Elastically shrink data parallelism when nodes are scarce.

        With the backup pool exhausted, the job restarts on its
        remaining healthy nodes: DP shrinks to what fits (TP/PP are
        structural and cannot change without resharding) and the global
        batch scales with it, preserving per-replica batch size.
        """
        plan = self.spec.plan
        capacity = num_nodes * self.topology.spec.gpus_per_node
        if plan.world_size <= capacity:
            return plan, self.spec.global_batch
        per_replica = plan.tp * plan.pp
        new_dp = max(1, capacity // per_replica)
        new_world = per_replica * new_dp
        new_ep = plan.ep if plan.ep > 1 and new_world % plan.ep == 0 else 1
        shrunk = ParallelismPlan(
            tp=plan.tp,
            pp=plan.pp,
            dp=new_dp,
            grad_accumulation=plan.grad_accumulation,
            zero=plan.zero,
            ep=new_ep,
        )
        return shrunk, self.spec.global_batch * new_dp / plan.dp

    def _job_finished(self) -> None:
        assert self.report is not None
        self.report.completed_steps = self._target_steps
        self._watching = False

    def _arm_watchdog(self) -> None:
        self._watching = True
        self.network.schedule(self.evaluation_interval, self._watchdog_tick)

    def _watchdog_tick(self) -> None:
        if not self._watching:
            return
        assert self.report is not None and self.job is not None
        if self.job.steps:
            self.report.completed_steps = max(
                self.report.completed_steps,
                max(step.step_index for step in self.job.steps) + 1,
            )
        for anomaly in self.master.evaluate(self.network.now):
            if anomaly.anomaly_type not in (
                AnomalyType.NONCOMM_HANG,
                AnomalyType.COMM_HANG,
            ):
                continue
            # Only act on the *current* incarnation's communicators; the
            # abandoned previous incarnation stays hung forever and must
            # not retrigger recovery after the cooldown expires.
            if not self._concerns_current_incarnation(anomaly):
                continue
            self._recover(anomaly)
            break
        if self._watching:
            self.network.schedule(self.evaluation_interval, self._watchdog_tick)

    def _concerns_current_incarnation(self, anomaly: Anomaly) -> bool:
        if anomaly.comm_id.startswith(self._comm_prefix):
            return True
        comm_ids = anomaly.evidence.get("comm_ids", ())
        return any(str(comm_id).startswith(self._comm_prefix) for comm_id in comm_ids)

    def _recover(self, anomaly: Anomaly) -> None:
        assert self.job is not None and self.report is not None
        detected_at = self.network.now
        crash_time = self._crash_time if self._crash_time is not None else detected_at
        action = self.steering.handle(anomaly, detected_at)
        assert action is not None  # dedup_window=0.0 suppresses nothing
        # The job keeps its node order: each replacement takes its
        # isolated node's position (rank placement follows node order);
        # an isolated node left without a replacement is dropped.
        swap = dict(zip(action.isolated_nodes, action.replacement_nodes))
        allocation = self.scheduler.reassign(
            JOB_NAME,
            [
                swap.get(node_id, node_id)
                for node_id in self.scheduler.allocation_of(JOB_NAME).nodes
                if node_id in swap or node_id not in action.isolated_nodes
            ],
        )
        # Restore point: the newest *valid* snapshot completed before the
        # crash; corrupted ones are skipped (fallback chain).
        snapshot = self.checkpointer.restore(crash_time)
        restore_fallbacks = self.checkpointer.last_restore_fallbacks
        if restore_fallbacks:
            logger.warning(
                "skipped %d corrupted snapshot(s); restoring from step %s",
                restore_fallbacks,
                snapshot.step if snapshot is not None else "0 (cold start)",
            )
        restored_step = snapshot.step + 1 if snapshot is not None else 0
        lost = max(0, self.job.current_step - restored_step)
        self.report.events.append(
            RecoveryEvent(
                crash_time=crash_time,
                detected_at=detected_at,
                action=action,
                restored_step=restored_step,
                lost_steps=lost,
                restore_fallbacks=restore_fallbacks,
            )
        )
        self._crash_time = None
        nodes = list(allocation.nodes)
        remaining = self._target_steps - restored_step

        def relaunch() -> None:
            self._launch(nodes, remaining, restored_step=restored_step)

        self.network.schedule_at(action.ready_at, relaunch)
