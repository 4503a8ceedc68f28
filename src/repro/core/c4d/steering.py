"""Job steering: isolate faulty nodes, pull in backups, restart.

Reproduces the paper's recovery loop (Fig. 4): once the master localizes
an anomaly, the steering service isolates the implicated nodes, draws
replacements from the backup pool (the paper provisions 64 backup GPUs
per 1,024 — 8 spare servers per 128), and restarts the job from the most
recent valid checkpoint.  The action latencies are explicit parameters
because they are exactly the downtime components Table III accounts:
detection is C4D's tens of seconds, isolation and restart are the
steering service's minutes.

The hardened service (chaos harness) additionally survives the steering
actions themselves misbehaving: an isolation RPC can time out and is
retried with capped exponential backoff, a replacement drawn from the
backup pool can be dead on arrival (the next spare is drawn and the
waste is recorded), and backup-pool exhaustion is surfaced as a
structured field on the action instead of the silent
replacements-shorter-than-isolations convention.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.c4d.events import Anomaly
from repro.obs.metrics import MetricsRegistry, get_registry

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SteeringConfig:
    """Latencies and retry policy of the automated recovery pipeline.

    Defaults follow §IV-B: C4D cuts detection+localization "to mere tens
    of seconds", while "additional minutes are still required by the
    steering service to isolate the affected nodes and restart the job".

    Attributes
    ----------
    isolation_seconds / restart_seconds:
        Happy-path action latencies.
    max_isolation_attempts:
        Tries per node before the isolation is abandoned (the node stays
        in the job; the operator is paged via ``failed_isolations``).
    backoff_base_seconds / backoff_cap_seconds:
        Capped exponential backoff between isolation retries: attempt
        ``k`` waits ``min(base * 2**k, cap)`` seconds.
    """

    isolation_seconds: float = 120.0
    restart_seconds: float = 180.0
    max_isolation_attempts: int = 3
    backoff_base_seconds: float = 15.0
    backoff_cap_seconds: float = 120.0

    def retry_backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), capped."""
        return min(
            self.backoff_base_seconds * (2.0 ** attempt), self.backoff_cap_seconds
        )


@dataclass(frozen=True)
class SteeringFaultModel:
    """Failure injection for the steering actions themselves.

    Attributes
    ----------
    isolation_failure_rate:
        Probability one isolation attempt times out.
    replacement_doa_rate:
        Probability a backup node is dead on arrival (fails its health
        check when pulled from the pool).
    seed:
        Seed for the model's private RNG.
    """

    isolation_failure_rate: float = 0.0
    replacement_doa_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.isolation_failure_rate < 1.0:
            raise ValueError("isolation_failure_rate must be in [0, 1)")
        if not 0.0 <= self.replacement_doa_rate < 1.0:
            raise ValueError("replacement_doa_rate must be in [0, 1)")
        # Frozen dataclass: stash the RNG via object.__setattr__.
        object.__setattr__(self, "_rng", np.random.default_rng(self.seed))

    def isolation_fails(self) -> bool:
        """Sample one isolation attempt's outcome."""
        return bool(self._rng.random() < self.isolation_failure_rate)

    def replacement_dead(self) -> bool:
        """Sample one replacement's arrival health."""
        return bool(self._rng.random() < self.replacement_doa_rate)


@dataclass(frozen=True)
class SteeringAction:
    """The outcome of handling one anomaly."""

    anomaly: Anomaly
    isolated_nodes: tuple[int, ...]
    replacement_nodes: tuple[int, ...]
    #: When the job is running again (isolation + retries + restart done).
    ready_at: float
    #: True when the backup pool could not cover every isolation — the
    #: job must restart on a shrunk world.
    pool_exhausted: bool = False
    #: Total isolation attempts across all nodes (1 per node when no
    #: injected steering faults fire).
    attempts: int = 0
    #: Extra delay paid to isolation retries, included in ``ready_at``.
    backoff_seconds: float = 0.0
    #: Backups drawn but dead on arrival (wasted spares).
    doa_replacements: tuple[int, ...] = ()
    #: Nodes whose isolation failed every attempt (still in the job).
    failed_isolations: tuple[int, ...] = ()



def fault_key(anomaly: Anomaly) -> tuple:
    """Stable identity of the physical fault behind an anomaly.

    Two verdicts implicating the same node set (or, node-less, the same
    communicator) describe the same fault — a restarted or replayed
    master re-deriving the verdict must not re-execute it.
    """
    nodes = tuple(sorted(anomaly.suspect_nodes))
    if nodes:
        return (anomaly.anomaly_type.value, nodes)
    return ("comm", anomaly.comm_id)


class JobSteeringService:
    """Automated isolate-and-restart driven by C4D anomalies.

    Parameters
    ----------
    topology:
        The cluster whose nodes are isolated/replaced.
    backup_nodes:
        Node ids reserved as spares (not used by running jobs).
    config:
        Action latencies and retry policy.
    faults:
        Optional failure injection for the steering actions themselves
        (chaos campaigns); ``None`` gives the happy path.
    dedup_window:
        Seconds during which a second verdict for the same fault key is
        treated as a duplicate and suppressed, whatever its epoch — a
        restarted master re-deriving an already-executed verdict must
        not re-isolate.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        backup_nodes: list[int],
        config: Optional[SteeringConfig] = None,
        faults: Optional[SteeringFaultModel] = None,
        dedup_window: float = 900.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.topology = topology
        self.backup_pool: list[int] = list(backup_nodes)
        self.config = config or SteeringConfig()
        self.faults = faults
        self.dedup_window = dedup_window
        #: Logical action history: every action this service decided,
        #: including ones reconstructed from a journal during replay.
        #: Part of the recovery state digest.
        self.actions: list[SteeringAction] = []
        #: Actions physically executed by *this process* (topology
        #: mutations actually performed).  Never rebuilt by replay;
        #: excluded from the digest — this is what campaign runners
        #: score and react to.
        self.executed_actions: list[SteeringAction] = []
        #: ``(fault_key, epoch)`` per executed action, for duplicate
        #: accounting across restarts.
        self.executed_log: list[tuple[tuple, int]] = []
        #: fault_key -> (epoch, executed_at, action) for executed
        #: verdicts still inside the dedup window.
        self._executed: dict[tuple, tuple[int, float, SteeringAction]] = {}
        #: Verdicts suppressed as duplicates.
        self.dedup_hits: int = 0
        #: Replay mode: queued reconstructed actions applied as pure
        #: bookkeeping (no topology/RNG side effects).
        self._replay_queue: Optional[list[SteeringAction]] = None
        #: Every node this service ever isolated (for return_to_pool
        #: validation and idempotency).
        self._isolated: set[int] = set()
        registry = get_registry(metrics)
        self._m_actions = registry.counter(
            "steering_actions_total", "Isolate-and-restart actions taken"
        )
        self._m_isolated = registry.counter(
            "steering_nodes_isolated_total", "Nodes successfully isolated"
        )
        self._m_retries = registry.counter(
            "steering_isolation_retries_total", "Isolation attempts beyond the first"
        )
        self._m_failed = registry.counter(
            "steering_isolation_failures_total",
            "Nodes whose isolation failed every attempt",
        )
        self._m_doa = registry.counter(
            "steering_doa_replacements_total", "Backups drawn but dead on arrival"
        )
        self._m_pool_exhausted = registry.counter(
            "steering_pool_exhaustions_total", "Actions that found the backup pool empty"
        )
        self._m_backoff = registry.histogram(
            "steering_backoff_seconds", "Retry backoff paid per action"
        )
        self._m_pool = registry.gauge(
            "steering_backup_pool_size", "Spare nodes currently in the backup pool"
        )
        self._m_pool.set(len(self.backup_pool))

    # ------------------------------------------------------------------
    # Isolation with retries
    # ------------------------------------------------------------------
    def _isolate_with_retries(self, node_id: int) -> tuple[bool, int, float]:
        """Try to isolate one node.

        Returns ``(succeeded, attempts, backoff_paid)``.
        """
        attempts = 0
        backoff = 0.0
        while attempts < self.config.max_isolation_attempts:
            attempts += 1
            if self.faults is None or not self.faults.isolation_fails():
                self.topology.node(node_id).isolate()
                self._isolated.add(node_id)
                return True, attempts, backoff
            if attempts < self.config.max_isolation_attempts:
                backoff += self.config.retry_backoff(attempts - 1)
        logger.warning(
            "isolation of node %d failed after %d attempts; node stays in job",
            node_id,
            attempts,
        )
        return False, attempts, backoff

    def _draw_replacement(self) -> tuple[Optional[int], list[int]]:
        """Pop spares until one passes its arrival health check."""
        doa: list[int] = []
        while self.backup_pool:
            candidate = self.backup_pool.pop(0)
            if self.faults is not None and self.faults.replacement_dead():
                logger.warning("backup node %d dead on arrival; drawing next", candidate)
                self.topology.node(candidate).isolate()
                self._isolated.add(candidate)
                doa.append(candidate)
                continue
            return candidate, doa
        return None, doa

    # ------------------------------------------------------------------
    # Journal replay (control-plane recovery)
    # ------------------------------------------------------------------
    def begin_replay(self, actions: list[SteeringAction]) -> None:
        """Enter replay mode with the journaled actions still to re-apply.

        While replaying, :meth:`handle` pops the next queued action and
        applies *bookkeeping only* — pool/idempotency state — without
        touching the topology or any RNG: the physical side effects
        already happened before the crash.
        """
        self._replay_queue = list(actions)

    def end_replay(self) -> None:
        """Leave replay mode (queue must be fully consumed)."""
        leftover = self._replay_queue
        self._replay_queue = None
        if leftover:
            raise RuntimeError(
                f"{len(leftover)} journaled steering action(s) were never "
                "re-derived during replay; journal and detector state disagree"
            )

    def _apply_replayed(
        self, action: SteeringAction, now: float, epoch: int
    ) -> SteeringAction:
        """Bookkeeping for a journaled action: no topology/RNG effects."""
        drawn = set(action.replacement_nodes) | set(action.doa_replacements)
        self.backup_pool = [n for n in self.backup_pool if n not in drawn]
        self._isolated.update(action.isolated_nodes)
        self._isolated.update(action.doa_replacements)
        self.actions.append(action)
        self._executed[fault_key(action.anomaly)] = (epoch, now, action)
        self._m_pool.set(len(self.backup_pool))
        return action

    def handle(
        self, anomaly: Anomaly, now: float, epoch: int = 0
    ) -> Optional[SteeringAction]:
        """Isolate the anomaly's suspect nodes and schedule the restart.

        Returns ``None`` when the verdict is a duplicate: a verdict for
        the same fault key already executed inside ``dedup_window``
        seconds is suppressed *regardless of epoch*, so a restarted
        (higher-epoch) or replayed master cannot re-issue it.

        Nodes already isolated are skipped (idempotent under repeated
        detections).  Isolation attempts may fail and are retried with
        capped exponential backoff; replacements may be dead on arrival
        and are replaced in turn.  If the backup pool runs dry the
        action carries ``pool_exhausted=True`` and the job restarts on
        its remaining healthy nodes (shrunk world size).
        """
        key = fault_key(anomaly)
        executed = self._executed.get(key)
        if executed is not None:
            _epoch, executed_at, _action = executed
            if now - executed_at < self.dedup_window:
                self.dedup_hits += 1
                logger.info(
                    "suppressing duplicate verdict for fault %s "
                    "(executed at t=%.1f, epoch %d)",
                    key,
                    executed_at,
                    _epoch,
                )
                return None
            del self._executed[key]
        if self._replay_queue is not None:
            if not self._replay_queue:
                return None
            return self._apply_replayed(self._replay_queue.pop(0), now, epoch)
        to_isolate = [
            node_id
            for node_id in anomaly.suspect_nodes
            if self.topology.node(node_id).is_schedulable
        ]
        isolated: list[int] = []
        failed: list[int] = []
        replacements: list[int] = []
        doa: list[int] = []
        total_attempts = 0
        total_backoff = 0.0
        for node_id in to_isolate:
            ok, attempts, backoff = self._isolate_with_retries(node_id)
            total_attempts += attempts
            total_backoff += backoff
            if not ok:
                failed.append(node_id)
                continue
            isolated.append(node_id)
            replacement, dead = self._draw_replacement()
            doa.extend(dead)
            if replacement is not None:
                replacements.append(replacement)
        pool_exhausted = len(replacements) < len(isolated)
        if pool_exhausted:
            logger.warning(
                "backup pool exhausted: %d node(s) isolated, %d replacement(s) "
                "available; job restarts on a shrunk world",
                len(isolated),
                len(replacements),
            )
        ready_at = (
            now
            + self.config.isolation_seconds
            + total_backoff
            + self.config.restart_seconds
        )
        action = SteeringAction(
            anomaly=anomaly,
            isolated_nodes=tuple(isolated),
            replacement_nodes=tuple(replacements),
            ready_at=ready_at,
            pool_exhausted=pool_exhausted,
            attempts=total_attempts,
            backoff_seconds=total_backoff,
            doa_replacements=tuple(doa),
            failed_isolations=tuple(failed),
        )
        self.actions.append(action)
        self.executed_actions.append(action)
        self.executed_log.append((key, epoch))
        self._executed[key] = (epoch, now, action)
        self._m_actions.inc()
        self._m_isolated.inc(len(isolated))
        self._m_retries.inc(max(0, total_attempts - len(to_isolate)))
        self._m_failed.inc(len(failed))
        self._m_doa.inc(len(doa))
        self._m_pool_exhausted.inc(int(pool_exhausted))
        self._m_backoff.observe(total_backoff)
        self._m_pool.set(len(self.backup_pool))
        return action

    # ------------------------------------------------------------------
    # Snapshot / restore (control-plane journaling)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Detached snapshot of the service's logical state.

        ``executed_actions``/``executed_log`` are deliberately absent:
        they describe what *this process* physically did and must not be
        resurrected into a recovered instance.
        """
        return {
            "backup_pool": list(self.backup_pool),
            "isolated": sorted(self._isolated),
            "actions": tuple(self.actions),
            "executed": [
                (key, epoch, executed_at, action)
                for key, (epoch, executed_at, action) in sorted(
                    self._executed.items(), key=lambda item: repr(item[0])
                )
            ],
            "dedup_window": self.dedup_window,
            "dedup_hits": self.dedup_hits,
        }

    def restore_state(self, state: dict) -> None:
        """Replace logical state with a :meth:`snapshot_state` dict."""
        self.backup_pool = list(state["backup_pool"])
        self._isolated = set(state["isolated"])
        self.actions = list(state["actions"])
        self._executed = {
            key: (epoch, executed_at, action)
            for key, epoch, executed_at, action in state["executed"]
        }
        self.dedup_window = state["dedup_window"]
        self.dedup_hits = state["dedup_hits"]
        self._m_pool.set(len(self.backup_pool))

    def return_to_pool(self, node_id: int) -> bool:
        """Return a repaired node to the backup pool.

        Idempotent: a node already back in the pool is left alone
        (returns False).  A node this service never isolated is
        rejected — returning an arbitrary node would let duplicate ids
        into the pool.
        """
        if node_id not in self._isolated:
            raise ValueError(
                f"node {node_id} was never isolated by this steering service"
            )
        if node_id in self.backup_pool:
            return False
        self.topology.node(node_id).restore()
        self.backup_pool.append(node_id)
        self._m_pool.set(len(self.backup_pool))
        return True
