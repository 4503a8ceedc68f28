"""The journaled, fenced, recoverable C4P traffic-engineering master.

:class:`ResilientC4PMaster` subclasses the plain
:class:`~repro.core.c4p.master.C4PMaster` and journals every mutating
entry point — allocations (with their assigned QP numbers, so recovered
allocations keep their identities), releases, out-of-band link
failures, and maintenance passes (with their probe outcomes, so replay
never touches the live fabric).

Compound operations journal **one** entry: a maintenance pass that
internally quarantines-and-drains journals only the pass plus its probe
outcomes, because replaying the pass re-derives the nested quarantines
deterministically.  Epoch fencing raises :class:`FencedOut` from a
stale master's mutating calls — a zombie C4P master can neither
allocate paths nor trigger migrations after a takeover.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.topology import ClusterTopology
from repro.collective.selectors import PathRequest, QpAllocation
from repro.controlplane.journal import FencedOut, JournalStore
from repro.controlplane.journal import state_digest as _digest
from repro.core.c4p import master as c4p_master
from repro.core.c4p.master import C4PMaster, DrainReport, MaintenanceReport
from repro.obs.metrics import MetricsRegistry


class ResilientC4PMaster(C4PMaster):
    """C4P master with a write-ahead journal and epoch fencing.

    Parameters mirror :class:`C4PMaster`, plus:

    store:
        Shared journal store (the fencing authority).  A recovery
        instance is constructed against the crashed master's store with
        ``active=False, refresh_on_init=False`` and then promoted via
        :meth:`recover`.
    active:
        True claims writership at construction; False builds an inert
        instance that only :meth:`recover` can activate.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        store: Optional[JournalStore] = None,
        active: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        **kwargs,
    ) -> None:
        self.store = store if store is not None else JournalStore(metrics=metrics)
        self.epoch = 0
        self.active = False
        self._replaying = False
        self._suppress_journal = False
        super().__init__(topology, metrics=metrics, **kwargs)
        if active:
            self.epoch = self.store.open_epoch()
            self.active = True

    # ------------------------------------------------------------------
    # Fencing
    # ------------------------------------------------------------------
    def _check_writer(self) -> None:
        if self.active and self.epoch == self.store.epoch:
            return
        self.active = False
        self.store.record_fence()
        raise FencedOut(
            f"c4p master epoch {self.epoch} is stale "
            f"(store is at epoch {self.store.epoch})"
        )

    @property
    def _bypass(self) -> bool:
        """True when a call must not journal (replay or nested mutation)."""
        return self._replaying or self._suppress_journal

    # ------------------------------------------------------------------
    # Journaled mutating entry points
    # ------------------------------------------------------------------
    def allocate(self, request: PathRequest) -> list[QpAllocation]:
        if self._bypass:
            return super().allocate(request)
        self._check_writer()
        # Draw the QP numbers up front and journal them write-ahead:
        # replay feeds the same numbers through the override queue, so
        # recovered allocations keep their identities even though the
        # global counter has moved on.
        qp_nums = [next(c4p_master._qp_counter) for _ in range(request.num_qps)]
        self.store.append(
            "allocate",
            {"request": request, "qp_nums": qp_nums},
            self.epoch,
        )
        self._qp_num_override.extend(qp_nums)
        try:
            return super().allocate(request)
        finally:
            self._qp_num_override.clear()

    def release(
        self, request: PathRequest, allocations: Sequence[QpAllocation]
    ) -> None:
        if self._bypass:
            return super().release(request, allocations)
        self._check_writer()
        self.store.append(
            "release", {"qp_nums": [a.qp_num for a in allocations]}, self.epoch
        )
        super().release(request, allocations)

    def notify_link_failure(
        self, link_id: tuple, now: Optional[float] = None, drain: bool = True
    ) -> DrainReport:
        if self._bypass:
            return super().notify_link_failure(link_id, now, drain)
        self._check_writer()
        if now is None:
            now = self.topology.network.now
        self.store.append(
            "link_failure",
            {"link": link_id, "now": now, "drain": drain},
            self.epoch,
        )
        return super().notify_link_failure(link_id, now, drain)

    def maintenance(
        self,
        now: Optional[float] = None,
        probe_results: Optional[dict[tuple, bool]] = None,
    ) -> MaintenanceReport:
        if self._bypass:
            return super().maintenance(now, probe_results)
        self._check_writer()
        if now is None:
            now = self.topology.network.now
        self._suppress_journal = True
        try:
            report = super().maintenance(now, probe_results)
        finally:
            self._suppress_journal = False
        self.store.append(
            "maintenance",
            {"now": now, "probes": dict(self.last_probe_results)},
            self.epoch,
        )
        return report

    # ------------------------------------------------------------------
    # Snapshots, digests, recovery
    # ------------------------------------------------------------------
    def state_digest(self) -> str:
        """Canonical digest of the full traffic-engineering state."""
        return _digest(self.snapshot_state())

    def snapshot(self) -> bool:
        """Record a full-state snapshot; raises when fenced out."""
        self._check_writer()
        self.store.snapshot(self.snapshot_state(), self.epoch)
        return True

    def recover(self, now: float = 0.0) -> dict:
        """Claim writership and rebuild state from the shared store."""
        saved_listener = self.migration_listener
        self.migration_listener = None
        self._replaying = True
        try:
            self.epoch, replayed = self.store.recover(
                self.restore_state, self._replay_entry
            )
        finally:
            self._replaying = False
            self.migration_listener = saved_listener
        self.active = True
        return {
            "epoch": self.epoch,
            "entries_replayed": replayed,
            "digest": self.state_digest(),
        }

    def _release_qps(self, qp_nums: Sequence[int]) -> None:
        for qp_num in qp_nums:
            record = self._allocated.pop(qp_num, None)
            if record is not None:
                self._deindex(record)
                self.registry.release(record.rail, record.alloc.choice)
                self._m_releases.inc()

    def _replay_entry(self, entry) -> None:
        kind = entry.kind
        payload = entry.payload
        if kind == "allocate":
            self._qp_num_override.extend(payload["qp_nums"])
            try:
                super().allocate(payload["request"])
            except c4p_master.PathPoolExhausted:
                # The live call failed the same way; partial state
                # mutations are re-derived identically.
                pass
            finally:
                self._qp_num_override.clear()
        elif kind == "release":
            self._release_qps(payload["qp_nums"])
        elif kind == "link_failure":
            super().notify_link_failure(payload["link"], payload["now"], payload["drain"])
        elif kind == "maintenance":
            super().maintenance(payload["now"], probe_results=payload["probes"])
        else:
            raise ValueError(f"unknown journal entry kind {kind!r}")


__all__ = ["ResilientC4PMaster"]
