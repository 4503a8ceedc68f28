"""Write-ahead journal + snapshots for the C4 control-plane masters.

The masters (C4D, C4P, the central collector) are long-lived singletons
whose in-memory state — delay-matrix windows, steering history,
allocation books, link-health machines — is exactly what a crash loses.
This module gives them a shared durability substrate:

* **journal entries** are written *ahead* of the mutation they describe
  (record ingestion) or immediately after an evaluation pass with its
  executed outcomes, in a single total order per store;
* **snapshots** capture the full state at a journal position, bounding
  replay work;
* **fencing epochs** make the store single-writer: every append carries
  the writer's epoch, and an epoch older than the store's current one is
  rejected with :class:`FencedOut` — the mechanism that stops a stale or
  zombie master from mutating state (or issuing actions) after a standby
  took over.

Recovery (:meth:`JournalStore.recover`) is one protocol for every
master: open a new epoch, restore the latest snapshot, replay the
entries after it, and compare :func:`state_digest` against the
pre-crash value.  A master supplies only how to restore its state and
how to replay one entry.  Entries and snapshots hold values (frozen
records as objects), not encodings; only the digest encodes them, as
SHA-256 over the canonical JSON (sorted keys, no whitespace) of the
:mod:`repro.codec` wire format, so "identical state" is a checkable
single string rather than a vibe.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.codec import encode
from repro.obs.metrics import MetricsRegistry, get_registry


class FencedOut(RuntimeError):
    """A writer with a stale epoch tried to mutate the journal.

    Raised by :meth:`JournalStore.append` / :meth:`JournalStore.snapshot`
    when the caller's epoch is older than the store's current epoch —
    i.e. another master has since taken over.  The stale writer must
    demote itself; it may never retry the write.
    """


def state_digest(state: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a state dict.

    ``json.dumps`` encodes containers and primitives itself (tuples as
    arrays) and hands each record or enum to :func:`repro.codec.encode`,
    so the bytes equal those of the codec's encoding of the whole state
    without building that encoded copy.
    """
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"), default=encode)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JournalEntry:
    """One journaled mutation."""

    seq: int
    epoch: int
    kind: str
    payload: dict


@dataclass(frozen=True)
class Snapshot:
    """Full state at one journal position, as ``snapshot_state`` returned it."""

    #: Journal length when the snapshot was taken; replay starts at this
    #: entry index.
    seq: int
    epoch: int
    state: dict


class JournalStore:
    """In-memory journal + snapshot store with epoch fencing.

    One store backs one logical master.  A production deployment would
    put this on replicated disk; the simulation keeps it in memory — the
    point is the *protocol* (write-ahead ordering, fencing, replay), not
    the medium.

    The store keeps what it is given and copies nothing.  So every
    ``snapshot_state`` must return a value that no later mutation of the
    live master reaches (fresh containers around immutable values such
    as frozen records), and every ``restore_state`` must build fresh
    containers from it, because one snapshot may be restored many times.
    Nothing here decodes: :mod:`repro.codec` is encode only, and runs
    just for :func:`state_digest`.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.entries: list[JournalEntry] = []
        self.snapshots: list[Snapshot] = []
        #: Current writer epoch; appends from older epochs are fenced.
        self.epoch = 0
        #: Next absolute sequence number (monotonic across compaction).
        self._next_seq = 0
        #: Recoveries completed against this store, by any master.
        self.recoveries = 0
        #: The subset of :attr:`recoveries` that promoted a warm standby.
        self.failovers = 0
        #: Writes rejected because the writer's epoch was stale.
        self.fence_rejections = 0
        registry = get_registry(metrics)
        self._m_entries = registry.counter(
            "controlplane_journal_entries_total",
            "Mutations appended to a control-plane journal",
            labels=("kind",),
        )
        #: The entries counter's child per entry kind, resolved once.
        self._m_entries_by_kind: dict = {}
        self._m_size = registry.gauge(
            "controlplane_journal_size",
            "Entries currently retained in a control-plane journal",
        )
        self._m_snapshots = registry.counter(
            "controlplane_snapshots_total", "Control-plane state snapshots taken"
        )
        self._m_fenced = registry.counter(
            "controlplane_fence_rejections_total",
            "Writes rejected because the writer's epoch was stale",
        )
        self._m_epoch = registry.gauge(
            "controlplane_epoch", "Current fencing epoch of the journal store"
        )
        self._m_recoveries = registry.counter(
            "controlplane_recoveries_total",
            "Journal-replay recoveries completed by a control plane",
        )
        self._m_failovers = registry.counter(
            "controlplane_failovers_total", "Warm-standby promotions completed"
        )
        self._m_replayed = registry.counter(
            "controlplane_replayed_entries_total",
            "Journal entries replayed during recoveries",
        )
        self._m_replay_seconds = registry.histogram(
            "controlplane_replay_seconds", "Wall-clock time of one journal replay"
        )

    # ------------------------------------------------------------------
    # Epoch management
    # ------------------------------------------------------------------
    def open_epoch(self) -> int:
        """Claim writership: bump and return the fencing epoch.

        Every master (initial start, restart, promoted standby) calls
        this exactly once before its first write; all earlier epochs are
        fenced from that moment on.
        """
        self.epoch += 1
        self._m_epoch.set(self.epoch)
        return self.epoch

    def check_epoch(self, epoch: int) -> None:
        """Raise :class:`FencedOut` when ``epoch`` is no longer current."""
        if epoch != self.epoch:
            raise FencedOut(
                f"writer epoch {epoch} is stale (store is at epoch {self.epoch})"
            )

    def record_fence(self) -> None:
        """Count one fenced-out write (called by the demoting writer)."""
        self.fence_rejections += 1
        self._m_fenced.inc()

    def recover(
        self,
        restore: Callable[[dict], None],
        replay: Callable[[JournalEntry], None],
        standby: bool = False,
    ) -> tuple[int, int]:
        """Claim writership and rebuild a master's state from this store.

        Opens a new epoch (fencing out every earlier writer), passes the
        latest snapshot's state to ``restore`` (skipped before the first
        snapshot), then each later entry to ``replay`` in ``seq`` order.
        ``standby`` marks a warm-standby promotion, counted as a
        failover.  Returns ``(epoch, entries_replayed)``.
        """
        # Wall clock here is observability-only: it times the replay for
        # the metrics and never feeds simulated time or any verdict.
        started = time.perf_counter()  # repro: noqa[SIM001]
        epoch = self.open_epoch()
        snap = self.latest_snapshot()
        if snap is not None:
            restore(snap.state)
        entries = self.entries_after(snap.seq if snap is not None else 0)
        for entry in entries:
            replay(entry)
        self._m_replay_seconds.observe(
            time.perf_counter() - started  # repro: noqa[SIM001]
        )
        self.recoveries += 1
        self._m_recoveries.inc()
        self._m_replayed.inc(len(entries))
        if standby:
            self.failovers += 1
            self._m_failovers.inc()
        return epoch, len(entries)

    # ------------------------------------------------------------------
    # Journal / snapshot
    # ------------------------------------------------------------------
    def append(self, kind: str, payload: dict, epoch: int) -> JournalEntry:
        """Append one mutation; the caller must hold the current epoch."""
        self.check_epoch(epoch)
        entry = JournalEntry(seq=self._next_seq, epoch=epoch, kind=kind, payload=payload)
        self._next_seq += 1
        self.entries.append(entry)
        counter = self._m_entries_by_kind.get(kind)
        if counter is None:
            counter = self._m_entries_by_kind[kind] = self._m_entries.labels(kind=kind)
        counter.inc()
        self._m_size.set(len(self.entries))
        return entry

    def snapshot(self, state: dict, epoch: int) -> Snapshot:
        """Record a full-state snapshot at the current journal position."""
        self.check_epoch(epoch)
        snap = Snapshot(seq=self._next_seq, epoch=epoch, state=state)
        self.snapshots.append(snap)
        self._m_snapshots.inc()
        return snap

    def latest_snapshot(self) -> Optional[Snapshot]:
        """Most recent snapshot, or None before the first."""
        return self.snapshots[-1] if self.snapshots else None

    def _index_of(self, seq: int) -> int:
        """Position of the first entry with ``entry.seq >= seq`` (seq-sorted)."""
        return bisect.bisect_left(self.entries, seq, key=lambda entry: entry.seq)

    def entries_after(self, seq: int) -> list[JournalEntry]:
        """Journal suffix from sequence number ``seq`` (inclusive).

        Found by the entries' absolute sequence numbers, not list
        position, so it stays correct after :meth:`compact`.
        """
        return self.entries[self._index_of(seq):]

    def compact(self) -> int:
        """Drop the journal entries the latest snapshot covers.

        Sequence numbers stay absolute, so the retained suffix keeps its
        replay positions.  Returns the number of entries dropped.
        """
        snap = self.latest_snapshot()
        if snap is None:
            return 0
        dropped = self._index_of(snap.seq)
        if dropped:
            self.entries = self.entries[dropped:]
            self._m_size.set(len(self.entries))
        return dropped
