"""Central collector: the C4D master's cluster-wide record store.

Each registered communicator has one entry (:class:`CommProgress`): its
per-rank progress (last launched and completed sequence numbers) and
bounded windows of its operation- and transport-layer records.  The
detectors in :mod:`repro.core.c4d` query this store; they never see
simulator ground truth.

Beside the operation window the entry keeps a ``seq -> records`` index,
so the per-operation queries the detectors make every pass are lookups
rather than window scans.  The launch window has no index: the hang
detector reads per-rank launch progress, which no window bounds.
Beside the message window the entry keeps the window's numeric columns
(:class:`MessageColumns`: pair id, rate, completion time, seq, valid
flag), filled at ingest, and numbers each pair and its source and
destination workers at their first appearance, so the delay matrix is
built and analysed as arrays instead of a record loop.  A message whose size or rate is not a finite positive
number is marked invalid there and never reaches the matrix.
The entry also holds the wait-chain finding of each seq, which the
collector drops whenever a record joins or leaves that seq's op bucket,
so an operation is analysed once per state of its records.  The index,
the columns with their numbering and the findings are derived state:
they are rebuilt (the findings start empty) on restore, dropped with
their entry and never serialized.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Iterable, Optional

import numpy as np

from repro.collective.monitoring import CommunicatorRecord, MessageRecord, OpLaunchRecord, OpRecord
from repro.obs.metrics import MetricsRegistry, get_registry


@dataclass
class CommProgress:
    """The collector's entry for one communicator: progress and windows.

    The windows and their derived state take no part in equality or
    ``repr``; the snapshot writes the windows beside the progress.
    """

    record: CommunicatorRecord
    #: Bounded record windows, oldest first.
    ops: Deque[OpRecord] = field(compare=False, repr=False)
    launches: Deque[OpLaunchRecord] = field(compare=False, repr=False)
    messages: Deque[MessageRecord] = field(compare=False, repr=False)
    #: ``messages`` as numeric columns, for the delay matrix.
    message_columns: MessageColumns = field(compare=False, repr=False)
    #: seq -> its records in window order, over ``ops``.
    ops_by_seq: dict[int, Deque[OpRecord]] = field(compare=False, repr=False)
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
    #: seq -> a detector's finding from that seq's op records.
    seq_findings: dict[int, Any] = field(default_factory=dict, compare=False, repr=False)

    @property
    def min_seq(self) -> int:
        """Slowest rank's completed sequence number."""
        if not self.last_seq:
            return -1
        return min(self.last_seq.values())

    @property
    def max_launch_seq(self) -> int:
        """Most recent sequence number any rank has launched."""
        if not self.last_launch_seq:
            return -1
        return max(self.last_launch_seq.values())


#: One message as the delay matrix reads it.  ``rate`` is
#: ``(complete_time - post_time) / size_bits``; ``valid`` is False for a
#: record whose size or rate is not a finite positive number (a
#: non-positive, NaN or unbounded size or duration), which carries no
#: rate information.
MESSAGE_ROW = np.dtype(
    [
        ("pair", np.int64),
        ("rate", np.float64),
        ("complete_time", np.float64),
        ("seq", np.int64),
        ("valid", np.bool_),
    ]
)

_INF = float("inf")

Worker = tuple[int, int]  # (node, nic)
Pair = tuple[Worker, Worker]  # (src, dst)


@dataclass(eq=False, slots=True)
class MessageView:
    """The columns of one message window, in window order.

    ``seq`` holds every row; ``pair`` and ``rate`` only the valid ones.
    """

    seq: np.ndarray
    pair: np.ndarray
    rate: np.ndarray
    #: Pair id -> ``((src_node, src_nic), (dst_node, dst_nic))``.
    pairs: list[Pair]
    #: Pair id -> its source and destination worker ids.
    ends: np.ndarray

    @classmethod
    def pack(cls, records: Iterable[MessageRecord]) -> "MessageView":
        """The rows of ``records``, as a window holding exactly them."""
        records = list(records)
        return MessageColumns.filled(len(records), records).view()

    def __len__(self) -> int:
        return len(self.seq)


class MessageColumns:
    """The numeric columns of one communicator's message window.

    A bounded FIFO with the record deque's ``maxlen``, so an eviction
    drops the same record from both.  Ingest appends a row tuple to a
    pending list; the next query (or a full pending list) moves pending
    rows into one numpy buffer.  The buffer grows with the window, to at
    most twice ``maxlen`` rows, and slides the live rows to its front
    when its tail is full, so a window is always one contiguous slice.

    A pair gets the next pair id at its first appearance, and each of its
    two workers not seen before gets the next worker id.
    """

    def __init__(self, maxlen: int) -> None:
        self.maxlen = maxlen
        self.pairs: list[Pair] = []
        self._pair_ids: dict[tuple[int, int, int, int], int] = {}
        self._worker_ids: dict[Worker, int] = {}
        #: Source and destination worker id of each pair, flat.
        self._ends: list[int] = []
        self._ends_array = np.empty((0, 2), np.intp)
        self._pending: list[tuple] = []
        self._rows = np.empty(0, MESSAGE_ROW)
        self._start = 0
        self._end = 0

    @classmethod
    def filled(cls, maxlen: int, records: Iterable[MessageRecord]) -> "MessageColumns":
        """Columns of ``maxlen`` rows holding ``records``' last rows."""
        columns = cls(maxlen)
        if maxlen:
            rows = [columns._row(record) for record in records][-maxlen:]
            columns._rows = np.fromiter(rows, MESSAGE_ROW, len(rows))
            columns._end = len(rows)
        return columns

    def _row(self, record: MessageRecord) -> tuple:
        """``record``'s row; its pair gets the next id at first appearance."""
        key = (record.src_node, record.src_nic, record.dst_node, record.dst_nic)
        pair = self._pair_ids.get(key)
        if pair is None:
            pair = self._pair_ids[key] = len(self.pairs)
            ends = (key[:2], key[2:])
            self.pairs.append(ends)
            for worker in ends:
                self._ends.append(self._worker_ids.setdefault(worker, len(self._worker_ids)))
        size = record.size_bits
        complete = record.complete_time
        rate = (complete - record.post_time) / size if 0 < size < _INF else 0.0
        return (pair, rate, complete, record.seq, 0 < rate < _INF)

    def append(self, record: MessageRecord) -> None:
        """Add ``record``'s row, evicting the oldest row when full."""
        if not self.maxlen:
            return  # a zero-length window keeps nothing
        self._pending.append(self._row(record))
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
        if len(self._ends_array) != len(self.pairs):
            self._ends_array = np.array(self._ends, np.intp).reshape(-1, 2)
        rows = self._rows[self._start : self._end]
        if since is None:
            kept = np.ones(len(rows), np.bool_)
        else:
            kept = rows["complete_time"] >= since
            # Rows arrive about in completion order, so the kept rows are
            # mostly a suffix: the columns are read from the first of them.
            first = kept.argmax() if len(kept) else 0
            rows, kept = rows[first:], kept[first:]
        valid = rows["valid"] & kept
        return MessageView(
            rows["seq"][kept],
            rows["pair"][valid],
            rows["rate"][valid],
            self.pairs,
            self._ends_array,
        )


#: What the queries read for a communicator that is not registered.
_UNREGISTERED = CommProgress(CommunicatorRecord("", 0, ()), (), (), (), MessageColumns(0), {})


class CentralCollector:
    """One entry per registered communicator: progress and record windows.

    ``metrics`` is the observability registry; ``None`` uses the process
    default.
    """

    #: Operation-layer records retained per communicator (launch and
    #: completion windows alike).
    OP_WINDOW = 4096
    #: Transport-layer records retained per communicator.
    MESSAGE_WINDOW = 16384
    #: Dropped-communicator tombstones retained.
    TOMBSTONE_CAPACITY = 1024

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        #: Registered communicator -> its entry.
        self.progress: dict[str, CommProgress] = {}
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

    def _append(self, kind: str, window: Deque, record) -> None:
        """Append to a bounded window, counting the record and any eviction."""
        if len(window) == window.maxlen:
            self._m_evicted[kind].inc()
        window.append(record)
        self._m_ingested[kind].inc()

    def _entry(
        self,
        record: CommunicatorRecord,
        ops: Iterable[OpRecord] = (),
        launches: Iterable[OpLaunchRecord] = (),
        messages: Iterable[MessageRecord] = (),
        **progress,
    ) -> CommProgress:
        """An entry with ``progress`` fields and fresh windows of the given records."""
        ops = deque(ops, maxlen=self.OP_WINDOW)
        launches = deque(launches, maxlen=self.OP_WINDOW)
        messages = deque(messages, maxlen=self.MESSAGE_WINDOW)
        columns = MessageColumns.filled(self.MESSAGE_WINDOW, messages)
        return CommProgress(record, ops, launches, messages, columns, _seq_index(ops), **progress)

    # ------------------------------------------------------------------
    # Ingestion (called by agents)
    # ------------------------------------------------------------------
    def ingest_communicator(self, record: CommunicatorRecord, now: float = 0.0) -> None:
        """Register a communicator."""
        self._dropped.pop(record.comm_id, None)
        self.progress[record.comm_id] = self._entry(
            record,
            last_seq=dict.fromkeys(range(record.size), -1),
            last_launch_seq=dict.fromkeys(range(record.size), -1),
            created_at=now,
        )
        self._m_ingested["communicator"].inc()
        self._m_comms.set(len(self.progress))

    def drop_communicator(self, comm_id: str) -> None:
        """Deregister a communicator (its job incarnation is gone).

        Every stored record and all progress bookkeeping are discarded
        and detectors stop seeing the communicator; records still in
        flight on a lossy channel are silently ignored on arrival.
        """
        self.progress.pop(comm_id, None)
        self._dropped.pop(comm_id, None)  # refresh insertion order
        self._dropped[comm_id] = None
        while len(self._dropped) > self.TOMBSTONE_CAPACITY:
            oldest = next(iter(self._dropped))
            del self._dropped[oldest]
            self._m_tombstones_evicted.inc()
        self._m_comms.set(len(self.progress))

    def ingest_launch(self, record: OpLaunchRecord) -> None:
        """Record a per-rank operation startup."""
        entry = self.progress.get(record.comm_id)
        if entry is None:
            self._discard(record.comm_id)
            return
        entry.last_launch_seq[record.rank] = max(
            entry.last_launch_seq.get(record.rank, -1), record.seq
        )
        entry.last_launch_time = max(entry.last_launch_time, record.launch_time)
        self._append("launch", entry.launches, record)

    def ingest_op(self, record: OpRecord) -> None:
        """Record a completed per-rank operation.

        The seq index keeps step with the window, which is FIFO, so the
        evicted record is always the front of its seq's bucket.  Each
        seq whose bucket changes loses its finding.
        """
        entry = self.progress.get(record.comm_id)
        if entry is None:
            self._discard(record.comm_id)
            return
        entry.last_seq[record.rank] = max(entry.last_seq.get(record.rank, -1), record.seq)
        entry.last_completion_time = max(entry.last_completion_time, record.end_time)
        ops, index, findings = entry.ops, entry.ops_by_seq, entry.seq_findings
        if ops and len(ops) == ops.maxlen:
            evicted = ops[0].seq
            bucket = index[evicted]
            bucket.popleft()
            if not bucket:
                del index[evicted]
            findings.pop(evicted, None)
        self._append("op", ops, record)
        if not ops:
            return  # a zero-length window keeps nothing
        findings.pop(record.seq, None)
        bucket = index.get(record.seq)
        if bucket is None:
            index[record.seq] = deque((record,))
        else:
            bucket.append(record)

    def ingest_message(self, record: MessageRecord) -> None:
        """Record a transport-layer message."""
        entry = self.progress.get(record.comm_id)
        if entry is None:
            self._discard(record.comm_id)
            return
        self._append("message", entry.messages, record)
        entry.message_columns.append(record)

    # ------------------------------------------------------------------
    # Queries (used by detectors)
    # ------------------------------------------------------------------
    def comm_ids(self) -> list[str]:
        """All registered communicators."""
        return list(self.progress.keys())

    def ops(self, comm_id: str, since: float = float("-inf")) -> list[OpRecord]:
        """Operation records completed at or after ``since``."""
        entry = self.progress.get(comm_id, _UNREGISTERED)
        return [r for r in entry.ops if r.end_time >= since]

    def messages(self, comm_id: str, since: float = float("-inf")) -> list[MessageRecord]:
        """Transport records completed at or after ``since``."""
        entry = self.progress.get(comm_id, _UNREGISTERED)
        return [r for r in entry.messages if r.complete_time >= since]

    def message_view(self, comm_id: str, since: float = float("-inf")) -> MessageView:
        """:meth:`messages` as columns, for the delay matrix."""
        return self.progress.get(comm_id, _UNREGISTERED).message_columns.view(since)

    def ops_for_seq(self, comm_id: str, seq: int) -> list[OpRecord]:
        """Per-rank records of one specific operation."""
        return list(self.progress.get(comm_id, _UNREGISTERED).ops_by_seq.get(seq, ()))

    def launches_for_seq(self, comm_id: str, seq: int) -> list[OpLaunchRecord]:
        """Per-rank startup records of one specific operation, by a window scan."""
        return [r for r in self.progress.get(comm_id, _UNREGISTERED).launches if r.seq == seq]

    def latest_seqs(self, comm_id: str, count: int) -> list[int]:
        """The most recent ``count`` completed sequence numbers."""
        return sorted(self.progress.get(comm_id, _UNREGISTERED).ops_by_seq)[-count:]

    # ------------------------------------------------------------------
    # Snapshot / restore (control-plane journaling)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Snapshot of all mutable collector state, detached from it.

        Records are frozen, so each window is a ``tuple`` of the record
        objects themselves; the digest encodes them.  Rank keys in the
        progress maps become ``[rank, seq]`` pairs so the snapshot
        survives canonical (sorted-key) JSON encoding.  The window sizes
        are constants that restore does not read; they stay in the
        snapshot so a digest names the windows its state was kept in.
        """
        return {
            "op_window": self.OP_WINDOW,
            "message_window": self.MESSAGE_WINDOW,
            "tombstone_capacity": self.TOMBSTONE_CAPACITY,
            "progress": {
                comm_id: {
                    "record": entry.record,
                    "last_seq": sorted(entry.last_seq.items()),
                    "last_launch_seq": sorted(entry.last_launch_seq.items()),
                    "last_completion_time": entry.last_completion_time,
                    "last_launch_time": entry.last_launch_time,
                    "created_at": entry.created_at,
                }
                for comm_id, entry in self.progress.items()
            },
            "ops": {comm_id: tuple(e.ops) for comm_id, e in self.progress.items()},
            "launches": {comm_id: tuple(e.launches) for comm_id, e in self.progress.items()},
            "messages": {comm_id: tuple(e.messages) for comm_id, e in self.progress.items()},
            "dropped": list(self._dropped),
        }

    def restore_state(self, state: dict) -> None:
        """Replace all mutable state with a :meth:`snapshot_state` dict.

        Builds fresh containers and never aliases ``state``'s, because
        one snapshot may be restored many times.
        """
        self.progress = {
            comm_id: self._entry(
                saved["record"],
                state["ops"][comm_id],
                state["launches"][comm_id],
                state["messages"][comm_id],
                last_seq=dict(saved["last_seq"]),
                last_launch_seq=dict(saved["last_launch_seq"]),
                last_completion_time=saved["last_completion_time"],
                last_launch_time=saved["last_launch_time"],
                created_at=saved["created_at"],
            )
            for comm_id, saved in state["progress"].items()
        }
        self._dropped = {comm_id: None for comm_id in state["dropped"]}
        self._m_comms.set(len(self.progress))

    def _discard(self, comm_id: str) -> None:
        """Refuse a record for a communicator that is not registered.

        Records for a communicator that was never registered are a
        programming error and raise; records for a *dropped* one are
        expected stragglers (telemetry in flight when the incarnation
        was torn down), counted and discarded.
        """
        self.require_known(comm_id)
        self._m_stragglers.inc()

    def require_known(self, comm_id: str) -> None:
        """Raise :class:`KeyError` unless ``comm_id`` is registered or dropped."""
        if comm_id not in self.progress and comm_id not in self._dropped:
            raise KeyError(
                f"records for unregistered communicator {comm_id!r}; "
                "ingest_communicator must come first"
            )


def _seq_index(window: Iterable) -> dict[int, Deque]:
    """``seq -> records`` over ``window``, each bucket in window order."""
    index: dict[int, Deque] = {}
    for record in window:
        index.setdefault(record.seq, deque()).append(record)
    return index
