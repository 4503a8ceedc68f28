"""Synthetic monitored workload driving the detect→steer pipeline.

The chaos campaign needs thousands of simulated seconds of monitored
training per scenario; running the full collective/netsim stack for
each would dominate the campaign's wall time without adding signal (the
detectors consume only monitoring records).  :class:`SyntheticFeed`
emits the *same* record types the real instrumented stack produces —
``CommunicatorRecord`` / ``OpLaunchRecord`` / ``OpRecord`` through the
same agent plane — while the injected ground-truth faults shape the
records exactly the way real faults shape them:

* a **crashed** node stops producing launch records and the whole
  communicator stalls (the BSP barrier never clears) → the hang
  detector's non-communication-hang syndrome;
* a **degraded** node (flapping window, cascade victim) launches late
  every step → the wait-chain non-communication-slow syndrome;
* everything flows through the (possibly lossy) telemetry channel, so
  the detectors see exactly what an unreliable deployment would.

The feed never talks to the detectors directly — the pipeline under
test is the real collector → master → steering code.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.faults import FaultClass, FaultEvent
from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import CommunicatorRecord, OpLaunchRecord, OpRecord

#: Simulated time per training step (one collective per step).
STEP_SECONDS = 5.0
#: Duration of one step's collective, in simulated seconds.
OP_SECONDS = 0.5
#: Launch lateness of a node inside an active degradation window.
DEGRADED_LATENESS = 2.0
#: Benign per-rank launch jitter (uniform, seconds).
JITTER = 0.02
#: Communicator ids are ``chaos#<incarnation>``.
COMM_PREFIX = "chaos"


class SyntheticFeed:
    """Emits monitoring records for one job under injected faults.

    Parameters
    ----------
    network:
        Event loop (supplies ``now`` / ``schedule``).
    sink:
        A MonitoringSink — normally the campaign's
        :class:`~repro.telemetry.agent.AgentPlane`.
    nodes:
        Node ids hosting the job, one rank per node.
    faults:
        Ground-truth fault events shaping the records.
    """

    def __init__(
        self,
        network,
        sink,
        nodes: Sequence[int],
        faults: Sequence[FaultEvent] = (),
        seed: int = 0,
    ) -> None:
        self.network = network
        self.sink = sink
        self.nodes: list[int] = list(nodes)
        self.faults = list(faults)
        self._rng = np.random.default_rng(seed)
        #: Nodes of the next incarnation once steering's pending action
        #: completes, and that relaunch's token (a newer action wins).
        self._planned: list[int] = list(self.nodes)
        self._relaunch_token = 0
        self._incarnation = 0
        self._seq = 0
        self._halted = True
        self._comm_id = ""
        self.steps_completed = 0
        self.relaunches = 0
        #: Optional ``(now, node)`` callback fired when a record shaped
        #: by an active fault is emitted (or withheld, for crashes) — the
        #: harness's ``first_record`` stamp
        #: (:func:`~repro.chaos.scorecard.trace_symptom`).
        self.symptom_observer = None

    # ------------------------------------------------------------------
    # Ground-truth queries (the feed is the cluster, not the detector)
    # ------------------------------------------------------------------
    def _crashed(self, node: int, now: float) -> bool:
        return any(
            f.fault_class is FaultClass.CRASH
            and f.component == node
            and f.active_at(now)
            for f in self.faults
        )

    def _lateness(self, node: int, now: float) -> float:
        degraded = any(
            f.fault_class is FaultClass.DEGRADE
            and f.component == node
            and f.active_at(now)
            for f in self.faults
        )
        return DEGRADED_LATENESS if degraded else 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register the first incarnation and begin emitting steps."""
        self._register()
        self.network.schedule(STEP_SECONDS, self._tick)

    def halt(self) -> None:
        """Stop emitting (steering tore the incarnation down)."""
        self._halted = True

    def relaunch(self, nodes: Sequence[int]) -> None:
        """Restart on a (possibly shrunk/swapped) node set."""
        self.nodes = list(nodes)
        self.relaunches += 1
        self._register()
        self.network.schedule(STEP_SECONDS, self._tick)

    def apply_action(self, action, drop_communicator) -> None:
        """Tear the incarnation down for a steering action; relaunch after.

        The next incarnation runs on the survivors plus the action's
        replacements.  ``drop_communicator(comm_id)`` deregisters the old
        communicator, so straggler records still in flight are discarded.
        """
        removed = set(action.isolated_nodes)
        self._planned = [n for n in self._planned if n not in removed] + list(
            action.replacement_nodes
        )
        self.halt()
        drop_communicator(self._comm_id)
        self._relaunch_token += 1
        token = self._relaunch_token

        def relaunch() -> None:
            # Superseded by a newer action's relaunch plan.
            if token == self._relaunch_token and self._planned:
                self.relaunch(self._planned)

        # A hair past ready_at: steering latencies and the master's
        # evaluation grid are both round numbers, so an exact-ready_at
        # relaunch ties with an evaluation tick — whether the relaunch
        # registration (and the feed grid it anchors) lands before or
        # after that evaluation would then hinge on timer tie-breaking
        # alone (a racecheck divergence).
        self.network.schedule(
            max(0.0, action.ready_at - self.network.now) + 1e-3, relaunch
        )

    @property
    def comm_id(self) -> str:
        """The current incarnation's communicator id."""
        return self._comm_id

    def _register(self) -> None:
        self._incarnation += 1
        self._seq = 0
        self._halted = False
        self._comm_id = f"{COMM_PREFIX}#{self._incarnation}"
        ranks = tuple(RankLocation(node, 0) for node in self.nodes)
        self.sink.on_communicator(
            CommunicatorRecord(self._comm_id, len(self.nodes), ranks)
        )

    # ------------------------------------------------------------------
    # Step emission
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._halted:
            return
        now = self.network.now
        seq = self._seq
        launches: dict[int, float] = {}
        crashed = []
        for rank, node in enumerate(self.nodes):
            if self._crashed(node, now):
                crashed.append(rank)
                if self.symptom_observer is not None:
                    self.symptom_observer(now, node)
                continue
            lateness = self._lateness(node, now)
            if lateness > 0 and self.symptom_observer is not None:
                self.symptom_observer(now, node)
            launch_time = (
                now
                + float(self._rng.uniform(0.0, JITTER))
                + lateness
            )
            launches[rank] = launch_time
            self.sink.on_op_launch(
                OpLaunchRecord(
                    comm_id=self._comm_id,
                    seq=seq,
                    op_type=OpType.ALLREDUCE,
                    rank=rank,
                    location=RankLocation(node, 0),
                    launch_time=launch_time,
                )
            )
        if crashed or not launches:
            # The BSP barrier never clears: no completions, no further
            # steps.  The hang detector must notice from the records.
            return
        start = max(launches.values())
        end = start + OP_SECONDS
        for rank, node in enumerate(self.nodes):
            self.sink.on_op(
                OpRecord(
                    comm_id=self._comm_id,
                    seq=seq,
                    op_type=OpType.ALLREDUCE,
                    algorithm=Algorithm.RING,
                    dtype="fp16",
                    element_count=1,
                    rank=rank,
                    location=RankLocation(node, 0),
                    launch_time=launches[rank],
                    start_time=start,
                    end_time=end,
                )
            )
        self._seq += 1
        self.steps_completed += 1
        self.network.schedule(STEP_SECONDS, self._tick)
