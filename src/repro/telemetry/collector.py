"""Central collector: the C4D master's cluster-wide record store.

Holds bounded windows of operation- and transport-layer records per
communicator plus per-rank progress (last completed sequence number).
The detectors in :mod:`repro.core.c4d` query this store; they never see
simulator ground truth.

Beside each operation and launch window the collector keeps a
``seq -> records`` index, so the per-operation queries the detectors make
every pass are lookups rather than window scans.  Beside each message
window it keeps the window's numeric columns (:class:`MessageColumns`:
pair id, rate, completion time, seq, valid flag), filled at ingest, so
the delay-matrix build is a vectorised pass instead of a record loop.
The index and the columns are derived state: they are rebuilt on
restore, dropped with their communicator and never serialized.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, Optional

import numpy as np

from repro.collective.monitoring import CommunicatorRecord, MessageRecord, OpLaunchRecord, OpRecord
from repro.obs.metrics import MetricsRegistry, get_registry


@dataclass
class CommProgress:
    """Progress bookkeeping for one communicator."""

    record: CommunicatorRecord
    #: Last completed op sequence per rank (-1 before the first op).
    last_seq: dict[int, int] = field(default_factory=dict)
    #: Last *launched* op sequence per rank (-1 before the first op).
    last_launch_seq: dict[int, int] = field(default_factory=dict)
    #: Completion time of the most recent op on any rank.
    last_completion_time: float = float("-inf")
    #: Launch time of the most recent op launch on any rank.
    last_launch_time: float = float("-inf")
    #: Time the communicator was registered.
    created_at: float = 0.0

    @property
    def min_seq(self) -> int:
        """Slowest rank's completed sequence number."""
        if not self.last_seq:
            return -1
        return min(self.last_seq.values())

    @property
    def max_seq(self) -> int:
        """Fastest rank's completed sequence number."""
        if not self.last_seq:
            return -1
        return max(self.last_seq.values())

    @property
    def max_launch_seq(self) -> int:
        """Most recent sequence number any rank has launched."""
        if not self.last_launch_seq:
            return -1
        return max(self.last_launch_seq.values())


#: One message as the delay matrix reads it.  ``rate`` is
#: ``(complete_time - post_time) / size_bits``; ``valid`` is False for a
#: record with non-positive size or duration, whose rate is meaningless
#: (a NaN size or duration is valid: its NaN rate poisons the pair).
MESSAGE_ROW = np.dtype(
    [
        ("pair", np.int64),
        ("rate", np.float64),
        ("complete_time", np.float64),
        ("seq", np.int64),
        ("valid", np.bool_),
    ]
)

Pair = tuple[tuple[int, int], tuple[int, int]]  # ((src node, nic), (dst node, nic))


@dataclass(frozen=True, eq=False)
class MessageView:
    """Rows of one message window, in window order, with their pair keys."""

    rows: np.ndarray
    #: Pair id -> ``((src_node, src_nic), (dst_node, dst_nic))``.
    pairs: list[Pair]

    @classmethod
    def pack(cls, records: Iterable[MessageRecord]) -> "MessageView":
        """The rows of ``records``, as a window holding exactly them."""
        records = list(records)
        return MessageColumns.filled(len(records), records).view()

    def __len__(self) -> int:
        return len(self.rows)

    def distinct_seqs(self) -> int:
        """How many operations the rows come from."""
        return len(np.unique(self.rows["seq"]))


class MessageColumns:
    """The numeric columns of one communicator's message window.

    A bounded FIFO with the record deque's ``maxlen``, so an eviction
    drops the same record from both.  Ingest appends a row tuple to a
    pending list; the next query (or a full pending list) moves pending
    rows into one numpy buffer.  The buffer grows with the window, to at
    most twice ``maxlen`` rows, and slides the live rows to its front
    when its tail is full, so a window is always one contiguous slice.
    """

    def __init__(self, maxlen: int) -> None:
        self.maxlen = maxlen
        self.pairs: list[Pair] = []
        self._pair_ids: dict[tuple[int, int, int, int], int] = {}
        self._pending: list[tuple] = []
        self._rows = np.empty(0, MESSAGE_ROW)
        self._start = 0
        self._end = 0

    @classmethod
    def filled(cls, maxlen: int, records: Iterable[MessageRecord]) -> "MessageColumns":
        """Columns of ``maxlen`` rows holding ``records``' last rows."""
        columns = cls(maxlen)
        for record in records:
            columns.append(record)
        return columns

    def append(self, record: MessageRecord) -> None:
        """Add ``record``'s row, evicting the oldest row when full."""
        if not self.maxlen:
            return  # a zero-length window keeps nothing
        key = (record.src_node, record.src_nic, record.dst_node, record.dst_nic)
        pair = self._pair_ids.get(key)
        if pair is None:
            pair = self._pair_ids[key] = len(self.pairs)
            self.pairs.append((key[:2], key[2:]))
        size = record.size_bits
        complete = record.complete_time
        duration = complete - record.post_time
        valid = not (size <= 0 or duration <= 0)
        self._pending.append((pair, duration / size if valid else 0.0, complete, record.seq, valid))
        if len(self._pending) == self.maxlen:
            self._flush()

    def _flush(self) -> None:
        rows = np.fromiter(self._pending, MESSAGE_ROW, len(self._pending))
        self._pending.clear()
        count = len(rows)  # at most maxlen: append flushes a full list
        keep = min(self._end - self._start, self.maxlen - count)
        start = self._end - keep
        if self._end + count > len(self._rows):
            size = keep + count
            if 2 * size <= len(self._rows):
                buffer = self._rows
            else:
                buffer = np.empty(2 * size, MESSAGE_ROW)
            buffer[:keep] = self._rows[start : self._end]
            self._rows, start, self._end = buffer, 0, keep
        self._rows[self._end : self._end + count] = rows
        self._start, self._end = start, self._end + count

    def view(self, since: Optional[float] = None) -> MessageView:
        """Rows of messages completed at or after ``since`` (all rows if None)."""
        if self._pending:
            self._flush()
        rows = self._rows[self._start : self._end]
        if since is None:
            return MessageView(rows.copy(), self.pairs)
        return MessageView(rows[rows["complete_time"] >= since], self.pairs)


class CentralCollector:
    """Bounded per-communicator windows of monitoring records.

    Parameters
    ----------
    op_window:
        Operation-layer records retained per communicator.
    message_window:
        Transport-layer records retained per communicator.
    metrics:
        Observability registry; ``None`` uses the process default.
    """

    def __init__(
        self,
        op_window: int = 4096,
        message_window: int = 16384,
        tombstone_capacity: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.progress: dict[str, CommProgress] = {}
        self._ops: dict[str, Deque[OpRecord]] = {}
        self._launches: dict[str, Deque[OpLaunchRecord]] = {}
        self._messages: dict[str, Deque[MessageRecord]] = {}
        self._message_columns: dict[str, MessageColumns] = {}
        #: Per communicator, seq -> its records in window order.
        self._ops_by_seq: dict[str, dict[int, Deque[OpRecord]]] = {}
        self._launches_by_seq: dict[str, dict[int, Deque[OpLaunchRecord]]] = {}
        self._op_window = op_window
        self._message_window = message_window
        self._tombstone_capacity = tombstone_capacity
        #: Communicators explicitly deregistered; late records for them
        #: (e.g. still in flight on a lossy channel) are discarded
        #: silently instead of raising.  Insertion-ordered and bounded:
        #: once full the oldest tombstone is evicted (a straggler for an
        #: ancient incarnation then raises, which is preferable to an
        #: unbounded set in a long-lived master).
        self._dropped: dict[str, None] = {}
        registry = get_registry(metrics)
        ingested = registry.counter(
            "telemetry_records_ingested_total",
            "Monitoring records accepted by the central collector",
            labels=("kind",),
        )
        self._m_ingested = {
            kind: ingested.labels(kind=kind)
            for kind in ("communicator", "op", "launch", "message")
        }
        evicted = registry.counter(
            "telemetry_window_evictions_total",
            "Records pushed out of a full bounded window",
            labels=("kind",),
        )
        self._m_evicted = {
            kind: evicted.labels(kind=kind) for kind in ("op", "launch", "message")
        }
        self._m_stragglers = registry.counter(
            "telemetry_straggler_records_total",
            "Late records for dropped communicators, silently discarded",
        )
        self._m_tombstones_evicted = registry.counter(
            "telemetry_tombstones_evicted_total",
            "Dropped-communicator tombstones evicted from the bounded FIFO",
        )
        self._m_comms = registry.gauge(
            "telemetry_registered_communicators",
            "Communicators currently registered with the collector",
        )

    def _append_bounded(self, kind: str, window: Deque, record) -> None:
        """Append to a bounded window, counting the eviction it causes."""
        if window.maxlen is not None and len(window) == window.maxlen:
            self._m_evicted[kind].inc()
        window.append(record)
        self._m_ingested[kind].inc()

    def _append_indexed(self, kind: str, window: Deque, index: dict, record) -> None:
        """:meth:`_append_bounded`, keeping the window's seq index in step.

        The window is FIFO, so within one seq bucket the evicted record
        is always the bucket's front.
        """
        if window and len(window) == window.maxlen:
            evicted = window[0].seq
            bucket = index[evicted]
            bucket.popleft()
            if not bucket:
                del index[evicted]
        self._append_bounded(kind, window, record)
        if not window:
            return  # a zero-length window keeps nothing
        bucket = index.get(record.seq)
        if bucket is None:
            index[record.seq] = deque((record,))
        else:
            bucket.append(record)

    # ------------------------------------------------------------------
    # Ingestion (called by agents)
    # ------------------------------------------------------------------
    def ingest_communicator(self, record: CommunicatorRecord, now: float = 0.0) -> None:
        """Register a communicator."""
        self._dropped.pop(record.comm_id, None)
        self.progress[record.comm_id] = CommProgress(
            record=record,
            last_seq={rank: -1 for rank in range(record.size)},
            last_launch_seq={rank: -1 for rank in range(record.size)},
            created_at=now,
        )
        self._ops[record.comm_id] = deque(maxlen=self._op_window)
        self._launches[record.comm_id] = deque(maxlen=self._op_window)
        self._messages[record.comm_id] = deque(maxlen=self._message_window)
        self._message_columns[record.comm_id] = MessageColumns(self._message_window)
        self._ops_by_seq[record.comm_id] = {}
        self._launches_by_seq[record.comm_id] = {}
        self._m_ingested["communicator"].inc()
        self._m_comms.set(len(self.progress))

    def drop_communicator(self, comm_id: str) -> None:
        """Deregister a communicator (its job incarnation is gone).

        Every stored record and all progress bookkeeping are discarded
        and detectors stop seeing the communicator; records still in
        flight on a lossy channel are silently ignored on arrival.
        """
        self.progress.pop(comm_id, None)
        self._ops.pop(comm_id, None)
        self._launches.pop(comm_id, None)
        self._messages.pop(comm_id, None)
        self._message_columns.pop(comm_id, None)
        self._ops_by_seq.pop(comm_id, None)
        self._launches_by_seq.pop(comm_id, None)
        self._dropped.pop(comm_id, None)  # refresh insertion order
        self._dropped[comm_id] = None
        while len(self._dropped) > self._tombstone_capacity:
            oldest = next(iter(self._dropped))
            del self._dropped[oldest]
            self._m_tombstones_evicted.inc()
        self._m_comms.set(len(self.progress))

    def ingest_launch(self, record: OpLaunchRecord) -> None:
        """Record a per-rank operation startup."""
        progress = self._require(record.comm_id)
        if progress is None:
            return
        progress.last_launch_seq[record.rank] = max(
            progress.last_launch_seq.get(record.rank, -1), record.seq
        )
        progress.last_launch_time = max(progress.last_launch_time, record.launch_time)
        comm_id = record.comm_id
        self._append_indexed(
            "launch", self._launches[comm_id], self._launches_by_seq[comm_id], record
        )

    def ingest_op(self, record: OpRecord) -> None:
        """Record a completed per-rank operation."""
        progress = self._require(record.comm_id)
        if progress is None:
            return
        progress.last_seq[record.rank] = max(
            progress.last_seq.get(record.rank, -1), record.seq
        )
        progress.last_completion_time = max(progress.last_completion_time, record.end_time)
        comm_id = record.comm_id
        self._append_indexed("op", self._ops[comm_id], self._ops_by_seq[comm_id], record)

    def ingest_message(self, record: MessageRecord) -> None:
        """Record a transport-layer message."""
        if self._require(record.comm_id) is None:
            return
        self._append_bounded("message", self._messages[record.comm_id], record)
        self._message_columns[record.comm_id].append(record)

    # ------------------------------------------------------------------
    # Queries (used by detectors)
    # ------------------------------------------------------------------
    def comm_ids(self) -> list[str]:
        """All registered communicators."""
        return list(self.progress.keys())

    def ops(self, comm_id: str, since: float = float("-inf")) -> list[OpRecord]:
        """Operation records completed at or after ``since``."""
        return [r for r in self._ops.get(comm_id, ()) if r.end_time >= since]

    def messages(self, comm_id: str, since: float = float("-inf")) -> list[MessageRecord]:
        """Transport records completed at or after ``since``."""
        return [r for r in self._messages.get(comm_id, ()) if r.complete_time >= since]

    def message_view(self, comm_id: str, since: float = float("-inf")) -> MessageView:
        """:meth:`messages` as columns, for the delay matrix."""
        columns = self._message_columns.get(comm_id)
        if columns is None:
            return MessageView(np.empty(0, MESSAGE_ROW), [])
        return columns.view(since)

    def ops_for_seq(self, comm_id: str, seq: int) -> list[OpRecord]:
        """Per-rank records of one specific operation."""
        return list(self._ops_by_seq.get(comm_id, {}).get(seq, ()))

    def launches_for_seq(self, comm_id: str, seq: int) -> list[OpLaunchRecord]:
        """Per-rank startup records of one specific operation."""
        return list(self._launches_by_seq.get(comm_id, {}).get(seq, ()))

    def latest_seqs(self, comm_id: str, count: int) -> list[int]:
        """The most recent ``count`` completed sequence numbers."""
        return sorted(self._ops_by_seq.get(comm_id, ()))[-count:]

    # ------------------------------------------------------------------
    # Snapshot / restore (control-plane journaling)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Snapshot of all mutable collector state, detached from it.

        Records are frozen, so each window is a ``tuple`` of the record
        objects themselves; the digest encodes them.  Rank keys in the
        progress maps become ``[rank, seq]`` pairs so the snapshot
        survives canonical (sorted-key) JSON encoding.
        """
        return {
            "op_window": self._op_window,
            "message_window": self._message_window,
            "tombstone_capacity": self._tombstone_capacity,
            "progress": {
                comm_id: {
                    "record": progress.record,
                    "last_seq": sorted(progress.last_seq.items()),
                    "last_launch_seq": sorted(progress.last_launch_seq.items()),
                    "last_completion_time": progress.last_completion_time,
                    "last_launch_time": progress.last_launch_time,
                    "created_at": progress.created_at,
                }
                for comm_id, progress in self.progress.items()
            },
            "ops": {comm_id: tuple(window) for comm_id, window in self._ops.items()},
            "launches": {comm_id: tuple(window) for comm_id, window in self._launches.items()},
            "messages": {comm_id: tuple(window) for comm_id, window in self._messages.items()},
            "dropped": list(self._dropped),
        }

    def restore_state(self, state: dict) -> None:
        """Replace all mutable state with a :meth:`snapshot_state` dict.

        Builds fresh containers and never aliases ``state``'s, because
        one snapshot may be restored many times.
        """
        self._op_window = state["op_window"]
        self._message_window = state["message_window"]
        self._tombstone_capacity = state["tombstone_capacity"]
        self.progress = {}
        self._ops = {}
        self._launches = {}
        self._messages = {}
        for comm_id, entry in state["progress"].items():
            self.progress[comm_id] = CommProgress(
                record=entry["record"],
                last_seq={rank: seq for rank, seq in entry["last_seq"]},
                last_launch_seq={rank: seq for rank, seq in entry["last_launch_seq"]},
                last_completion_time=entry["last_completion_time"],
                last_launch_time=entry["last_launch_time"],
                created_at=entry["created_at"],
            )
        for comm_id, window in state["ops"].items():
            self._ops[comm_id] = deque(window, maxlen=self._op_window)
        for comm_id, window in state["launches"].items():
            self._launches[comm_id] = deque(window, maxlen=self._op_window)
        for comm_id, window in state["messages"].items():
            self._messages[comm_id] = deque(window, maxlen=self._message_window)
        self._ops_by_seq = {
            comm_id: _seq_index(window) for comm_id, window in self._ops.items()
        }
        self._launches_by_seq = {
            comm_id: _seq_index(window) for comm_id, window in self._launches.items()
        }
        self._message_columns = {
            comm_id: MessageColumns.filled(self._message_window, window)
            for comm_id, window in self._messages.items()
        }
        self._dropped = {comm_id: None for comm_id in state["dropped"]}
        self._m_comms.set(len(self.progress))

    def _require(self, comm_id: str):
        """Progress for a live communicator, None for a dropped one.

        Records for a communicator that was never registered are a
        programming error and raise; records for a *dropped* one are
        expected stragglers (telemetry in flight when the incarnation
        was torn down) and are discarded by the caller.
        """
        progress = self.progress.get(comm_id)
        if progress is None:
            if comm_id in self._dropped:
                self._m_stragglers.inc()
                return None
            raise KeyError(
                f"records for unregistered communicator {comm_id!r}; "
                "ingest_communicator must come first"
            )
        return progress


def _seq_index(window: Iterable) -> dict[int, Deque]:
    """``seq -> records`` over ``window``, each bucket in window order."""
    index: dict[int, Deque] = {}
    for record in window:
        index.setdefault(record.seq, deque()).append(record)
    return index
