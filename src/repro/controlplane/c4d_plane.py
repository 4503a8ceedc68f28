"""The journaled, fenced, recoverable C4D control plane.

Wraps the detection stack (central collector + C4D master + steering)
behind a single write path:

* every record ingestion is journaled **write-ahead** — the entry hits
  the :class:`~repro.controlplane.journal.JournalStore` before the
  collector mutates;
* every evaluation pass is journaled **with its outcomes** (executed
  steering actions, the coverage/blind-node inputs), because the
  physical side effects — node isolations — must never be re-executed
  by replay: a recovered master re-derives the *bookkeeping* of an
  action, not the action;
* every write carries the plane's fencing epoch.  A plane whose epoch
  is stale (a standby was promoted, a restarted instance took over)
  demotes itself on its next write attempt instead of corrupting state.

Recovery (:meth:`C4DControlPlane.recover`) rebuilds the components and
runs :meth:`~repro.controlplane.journal.JournalStore.recover` on them: a
fresh epoch, the latest snapshot, then the journal suffix.  Determinism
of the stack makes the recovered state digest bit-identical to the
pre-crash one — which the chaos scorecard checks.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.topology import ClusterTopology
from repro.controlplane.journal import FencedOut, JournalStore, state_digest
from repro.controlplane.lease import LeaseTable
from repro.core.c4d.detectors import DetectorConfig
from repro.core.c4d.master import C4DMaster
from repro.core.c4d.steering import JobSteeringService, SteeringConfig, SteeringFaultModel
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.telemetry.collector import CentralCollector

#: Journal entry kinds whose payload is one record, replayed through the
#: collector's ``ingest_<kind>``.
_RECORD_KINDS = ("launch", "op", "message")
#: Metric families of the components :meth:`C4DControlPlane._build`
#: makes (collector, steering, master and its detectors).  A replay
#: leaves their counters and histograms as it found them.
_REBUILT_FAMILIES = ("telemetry_", "steering_", "c4d_")


class C4DControlPlane:
    """Crash-recoverable owner of the collector, master and steering.

    Parameters
    ----------
    topology / backup_nodes:
        Forwarded to the steering service.
    store:
        The journal store.  A primary and its warm standby share one
        store — that shared store's epoch is the fencing authority.
    leases:
        Agent heartbeat leases; coverage and blind nodes derived from
        them feed the master's degraded-mode gate.
    active:
        True claims writership immediately (normal start-up).  False
        builds an inert instance that only :meth:`recover` activates —
        a cold restart, or (with ``standby=True``) a warm standby whose
        promotion counts as a failover.

    The steering actions this plane physically executes are the new
    tail of ``steering.executed_actions`` after each :meth:`evaluate`.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        backup_nodes: list[int],
        store: Optional[JournalStore] = None,
        leases: Optional[LeaseTable] = None,
        detector_config: Optional[DetectorConfig] = None,
        steering_config: Optional[SteeringConfig] = None,
        steering_faults: Optional[SteeringFaultModel] = None,
        active: bool = True,
        standby: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.topology = topology
        self.backup_nodes = list(backup_nodes)
        self.store = store if store is not None else JournalStore(metrics=metrics)
        self.leases = leases if leases is not None else LeaseTable(metrics=metrics)
        self._detector_config = detector_config
        self._steering_config = steering_config
        self._steering_faults = steering_faults
        self._metrics = metrics
        self.epoch = 0
        self.active = False
        #: Built as a warm standby — its promotion counts as a failover.
        self._standby = standby and not active
        #: Agent records refused because this plane was fenced out; they
        #: reach no master (the store counts the same writes among its
        #: fence rejections).
        self._m_lost_fenced = (
            get_registry(metrics)
            .counter(
                "telemetry_records_lost_total",
                "Agent records that reached no master, by reason",
                labels=("reason",),
            )
            .labels(reason="fenced")
        )
        self._build()
        if active:
            self.epoch = self.store.open_epoch()
            self.master.epoch = self.epoch
            self.active = True

    def _build(self) -> None:
        """(Re)construct the collector/steering/master stack."""
        self.collector = CentralCollector(metrics=self._metrics)
        #: Kind -> the collector's ingest method, for replaying record entries.
        self._replay_ingest = {
            kind: getattr(self.collector, "ingest_" + kind) for kind in _RECORD_KINDS
        }
        self.steering = JobSteeringService(
            self.topology,
            backup_nodes=self.backup_nodes,
            config=self._steering_config,
            faults=self._steering_faults,
            metrics=self._metrics,
        )
        self.master = C4DMaster(
            self.collector,
            config=self._detector_config,
            steering=self.steering,
            metrics=self._metrics,
        )
        self.master.epoch = self.epoch

    # ------------------------------------------------------------------
    # Fencing
    # ------------------------------------------------------------------
    def _guard(self) -> bool:
        """True when this plane still holds writership; demote otherwise."""
        if self.active and self.epoch == self.store.epoch:
            return True
        self.active = False
        self.store.record_fence()
        return False

    # ------------------------------------------------------------------
    # Ingestion (duck-types the CentralCollector API, so agents can
    # point straight at the plane)
    # ------------------------------------------------------------------
    def _admit(self, comm_id: str) -> bool:
        """Guard, then refuse a record the collector would reject.

        A record refused by the guard is counted as lost telemetry.  A
        record for a never-registered communicator raises before it is
        journaled, so no entry can fail its replay.  A straggler for a
        dropped communicator is admitted: the collector counts and
        discards it.
        """
        if not (self.active and self.epoch == self.store.epoch):
            self._m_lost_fenced.inc()
            return self._guard()  # demotes this plane and returns False
        collector = self.collector
        if comm_id not in collector.progress:
            collector.require_known(comm_id)
        return True

    def ingest_communicator(self, record, now: float = 0.0) -> None:
        if self._guard():
            self.store.append("communicator", {"record": record, "now": now}, self.epoch)
            self.collector.ingest_communicator(record, now=now)
        else:
            self._m_lost_fenced.inc()

    def ingest_launch(self, record) -> None:
        if self._admit(record.comm_id):
            self.store.append("launch", record, self.epoch)
            self.collector.ingest_launch(record)

    def ingest_op(self, record) -> None:
        if self._admit(record.comm_id):
            self.store.append("op", record, self.epoch)
            self.collector.ingest_op(record)

    def ingest_message(self, record) -> None:
        if self._admit(record.comm_id):
            self.store.append("message", record, self.epoch)
            self.collector.ingest_message(record)

    def drop_communicator(self, comm_id: str) -> None:
        if not self._guard():
            return
        self.store.append("drop", {"comm_id": comm_id}, self.epoch)
        self.collector.drop_communicator(comm_id)

    # ------------------------------------------------------------------
    # Evaluation and snapshots
    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> list:
        """One master evaluation pass under the current lease coverage.

        The journal entry is written *after* execution and carries the
        executed actions plus the exact coverage/blind inputs, so replay
        re-derives the pass deterministically without re-running the
        physical isolations.
        """
        if not self._guard():
            return []
        coverage = self.leases.coverage(now)
        blind = self.leases.blind_nodes(now)
        actions_before = len(self.steering.actions)
        fresh = self.master.evaluate(now, coverage=coverage, blind_nodes=blind)
        self.store.append(
            "evaluate",
            {
                "now": now,
                "coverage": coverage,
                "blind": blind,
                "actions": tuple(self.steering.actions[actions_before:]),
            },
            self.epoch,
        )
        return fresh

    def state(self) -> dict:
        """Full state of the managed components (see ``state_digest``)."""
        return {
            "collector": self.collector.snapshot_state(),
            "master": self.master.snapshot_state(),
            "steering": self.steering.snapshot_state(),
        }

    def state_digest(self) -> str:
        """Canonical digest of :meth:`state` (epoch excluded by design)."""
        return state_digest(self.state())

    def snapshot(self) -> bool:
        """Record a full-state snapshot; False when fenced out."""
        if not self._guard():
            return False
        self.store.snapshot(self.state(), self.epoch)
        return True

    # ------------------------------------------------------------------
    # Recovery / failover
    # ------------------------------------------------------------------
    def recover(self, now: float = 0.0) -> dict:
        """Claim writership and rebuild state from the shared store.

        Works for both a restarted instance (crash recovery) and a warm
        standby (failover): both run :meth:`JournalStore.recover` on
        freshly built components, with physical side effects suppressed
        during replay, then start accepting writes.  The replay leaves
        the counters and histograms of the rebuilt components alone:
        their records and evaluations were counted the first time, and
        the store counts the replay.
        """
        self._build()
        with get_registry(self._metrics).held(_REBUILT_FAMILIES):
            self.epoch, replayed = self.store.recover(
                self._restore, self._replay_entry, standby=self._standby
            )
        self._standby = False
        self.master.epoch = self.epoch
        self.active = True
        return {
            "epoch": self.epoch,
            "entries_replayed": replayed,
            "digest": self.state_digest(),
        }

    def _restore(self, state: dict) -> None:
        self.collector.restore_state(state["collector"])
        self.master.restore_state(state["master"])
        self.steering.restore_state(state["steering"])

    def _replay_entry(self, seq: int, epoch: int, kind: str, payload) -> None:
        ingest = self._replay_ingest.get(kind)
        if ingest is not None:
            ingest(payload)
            return
        if kind == "communicator":
            self.collector.ingest_communicator(payload["record"], now=payload["now"])
        elif kind == "drop":
            self.collector.drop_communicator(payload["comm_id"])
        elif kind == "evaluate":
            # Re-derived actions keep the epoch of the incarnation that
            # executed them; recover() restores the plane's own epoch.
            self.master.epoch = epoch
            self.steering.begin_replay(payload["actions"])
            try:
                self.master.evaluate(
                    payload["now"],
                    coverage=payload["coverage"],
                    blind_nodes=payload["blind"],
                )
            finally:
                self.steering.end_replay()
        else:
            raise ValueError(f"unknown journal entry kind {kind!r}")


__all__ = ["C4DControlPlane", "FencedOut"]
