"""Control-plane self-resilience: journaled state, fencing, leases.

The C4 masters are singletons; this package is what lets them die.  It
provides the write-ahead :class:`JournalStore` (+ snapshots + fencing
epochs), agent heartbeat :class:`LeaseTable` coverage, and the two
recoverable planes — :class:`C4DControlPlane` wrapping the detection
stack and :class:`ResilientC4PMaster` wrapping traffic engineering —
whose crash recovery replays the journal back to a bit-identical
:func:`state_digest`.
"""

from repro.controlplane.c4d_plane import C4DControlPlane
from repro.controlplane.c4p_plane import ResilientC4PMaster
from repro.controlplane.journal import (
    FencedOut,
    JournalEntry,
    JournalStore,
    Snapshot,
    state_digest,
)
from repro.controlplane.lease import LeaseTable

__all__ = [
    "C4DControlPlane",
    "FencedOut",
    "JournalEntry",
    "JournalStore",
    "LeaseTable",
    "ResilientC4PMaster",
    "Snapshot",
    "state_digest",
]
