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
records as objects), not encodings; only the digest writes them, as
SHA-256 over the canonical JSON (sorted keys, no whitespace) of the
:mod:`repro.codec` wire format, so "identical state" is a checkable
single string rather than a vibe.  The codec's compiled writers stream
that text into the hash in chunks, so the digest never holds the
state's whole text or an encoded copy of it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterator, Optional

from repro.codec import feed_canonical
from repro.obs.metrics import MetricsRegistry, get_registry


class FencedOut(RuntimeError):
    """A writer with a stale epoch tried to mutate the journal.

    Raised by :meth:`JournalStore.append` / :meth:`JournalStore.snapshot`
    when the caller's epoch is older than the store's current epoch —
    i.e. another master has since taken over.  The stale writer must
    demote itself; it may never retry the write.
    """


def state_digest(state: dict) -> str:
    """SHA-256 over the canonical JSON text of a state dict.

    The hashed bytes are ``json.dumps(state, sort_keys=True,
    separators=(",", ":"), default=repro.codec.encode)``, written by
    :func:`repro.codec.feed_canonical`: sorted-field writers compiled per
    record type, the exact ``json.dumps`` text for any value outside its
    type hints, and long record windows fed to the hash a chunk at a
    time.  Nothing is cached between calls.
    """
    digest = hashlib.sha256()
    feed_canonical(state, digest.update)
    return digest.hexdigest()


#: One journal entry as :meth:`JournalStore.entries_after` yields it:
#: ``(seq, epoch, kind, payload)``.
Row = tuple[int, int, str, Any]


@dataclass(frozen=True)
class Snapshot:
    """Full state at one journal position, as ``snapshot_state`` returned it."""

    #: Sequence number of the first entry the snapshot does not cover;
    #: replay starts there.
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

    The journal is three parallel columns, one item per entry: the
    writer's epoch, the entry kind and the payload.  A record entry's
    payload is the frozen record itself.  An entry's sequence number is
    implicit: :attr:`first_seq` plus its position.  So an append
    allocates no object the cyclic garbage collector tracks, and a long
    journal does not keep triggering full collections.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.epochs: list[int] = []
        self.kinds: list[str] = []
        self.payloads: list[Any] = []
        self.snapshots: list[Snapshot] = []
        #: Current writer epoch; appends from older epochs are fenced.
        self.epoch = 0
        #: Absolute sequence number of the first retained entry; it
        #: moves only when :meth:`compact` drops a prefix.
        self.first_seq = 0
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
        registry.gauge(
            "controlplane_journal_size",
            "Entries currently retained in a control-plane journal",
        ).set_function(self.__len__)
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

    def _fenced(self, epoch: int) -> FencedOut:
        """The error for a write from ``epoch``, which is no longer current."""
        return FencedOut(f"writer epoch {epoch} is stale (store is at epoch {self.epoch})")

    def record_fence(self) -> None:
        """Count one fenced-out write (called by the demoting writer)."""
        self.fence_rejections += 1
        self._m_fenced.inc()

    def recover(
        self,
        restore: Callable[[dict], None],
        replay: Callable[[int, int, str, Any], None],
        standby: bool = False,
    ) -> tuple[int, int]:
        """Claim writership and rebuild a master's state from this store.

        Opens a new epoch (fencing out every earlier writer), passes the
        latest snapshot's state to ``restore`` (skipped before the first
        snapshot), then the fields of each later entry's :data:`Row` to
        ``replay`` as ``replay(seq, epoch, kind, payload)``, in ``seq``
        order.  ``standby`` marks a warm-standby promotion, counted as a
        failover.  Returns ``(epoch, entries_replayed)``.
        """
        # Wall clock here is observability-only: it times the replay for
        # the metrics and never feeds simulated time or any verdict.
        started = time.perf_counter()  # repro: noqa[SIM001]
        epoch = self.open_epoch()
        snap = self.latest_snapshot()
        if snap is not None:
            restore(snap.state)
        start = snap.seq if snap is not None else 0
        replayed = len(self.kinds) - self._index_of(start)
        # Unpacked in the loop, so zip reuses one row tuple throughout.
        for seq, entry_epoch, kind, payload in self.entries_after(start):
            replay(seq, entry_epoch, kind, payload)
        self._m_replay_seconds.observe(
            time.perf_counter() - started  # repro: noqa[SIM001]
        )
        self.recoveries += 1
        self._m_recoveries.inc()
        self._m_replayed.inc(replayed)
        if standby:
            self.failovers += 1
            self._m_failovers.inc()
        return epoch, replayed

    # ------------------------------------------------------------------
    # Journal / snapshot
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Entries currently retained (compaction drops covered ones)."""
        return len(self.kinds)

    def append(self, kind: str, payload: Any, epoch: int) -> None:
        """Append one mutation; the caller must hold the current epoch.

        ``payload`` is kept as given: a frozen record for a record entry,
        a dict of the entry's inputs otherwise.
        """
        if epoch != self.epoch:
            raise self._fenced(epoch)
        self.epochs.append(epoch)
        self.kinds.append(kind)
        self.payloads.append(payload)
        counter = self._m_entries_by_kind.get(kind)
        if counter is None:
            counter = self._m_entries_by_kind[kind] = self._m_entries.labels(kind=kind)
        counter.inc()

    def snapshot(self, state: dict, epoch: int) -> Snapshot:
        """Record a full-state snapshot at the current journal position."""
        if epoch != self.epoch:
            raise self._fenced(epoch)
        snap = Snapshot(seq=self.first_seq + len(self.kinds), epoch=epoch, state=state)
        self.snapshots.append(snap)
        self._m_snapshots.inc()
        return snap

    def latest_snapshot(self) -> Optional[Snapshot]:
        """Most recent snapshot, or None before the first."""
        return self.snapshots[-1] if self.snapshots else None

    def _index_of(self, seq: int) -> int:
        """Position of the first retained entry whose seq is ``>= seq``."""
        return min(max(seq - self.first_seq, 0), len(self.kinds))

    def entries_after(self, seq: int) -> Iterator[Row]:
        """The :data:`Row` of each entry from sequence number ``seq`` on.

        Found by absolute sequence numbers, not list position, so it
        stays correct after :meth:`compact`.  The rows are read from the
        columns as they are iterated and stop at the entries present at
        the call; consume them before the next :meth:`compact`.
        """
        start = self._index_of(seq)
        return zip(
            range(self.first_seq + start, self.first_seq + len(self.kinds)),
            islice(self.epochs, start, None),
            islice(self.kinds, start, None),
            islice(self.payloads, start, None),
        )

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
            del self.epochs[:dropped]
            del self.kinds[:dropped]
            del self.payloads[:dropped]
            self.first_seq += dropped
        return dropped
