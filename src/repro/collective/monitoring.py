"""The monitoring enhancement of ACCL (paper Fig. 6).

Three layers of records, collected top-down:

* **communicator layer** — communicator ids, involved devices, ranks;
* **operation layer** — operation type, algorithm, data type, element
  count, duration, and a per-communicator sequence number, logged per
  rank with kernel-accurate start/completion times (the paper patches
  the CUDA kernels to log these because CPU timestamps are unreliable);
* **transport layer** — connection info (source/destination IPs, QP
  numbers, source ports) and per-message counts, sizes and transfer
  durations.

C4D consumes *only* these records — never simulator ground truth — so
its detection accuracy in tests is a genuine end-to-end measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation


@dataclass(frozen=True)
class CommunicatorRecord:
    """Communicator-layer record: identity and member devices."""

    comm_id: str
    size: int
    ranks: tuple[RankLocation, ...]


@dataclass(frozen=True)
class OpLaunchRecord:
    """Operation-layer record logged when a rank *enters* a collective.

    Completion is logged separately (:class:`OpRecord`); a rank that
    launched sequence ``seq`` but never produced the matching completion
    is the communication-hang syndrome, while a rank whose launch record
    itself is missing is the non-communication-hang syndrome (crashed or
    stuck before reaching the collective).
    """

    comm_id: str
    seq: int
    op_type: OpType
    rank: int
    location: RankLocation
    launch_time: float


@dataclass(frozen=True)
class OpRecord:
    """Operation-layer record, one per rank per collective operation.

    ``launch_time`` is when the rank entered the collective (kernel
    launch); ``start_time`` is when data transfer actually began (all
    peers ready — the BSP synchronization point); ``end_time`` is
    completion.  ``launch_time`` spread across ranks is exactly the
    signal C4D's non-communication-slow detector reads (a straggler
    launches late and waits least).
    """

    comm_id: str
    seq: int
    op_type: OpType
    algorithm: Algorithm
    dtype: str
    element_count: int
    rank: int
    location: RankLocation
    launch_time: float
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        """Launch-to-completion time observed by this rank."""
        return self.end_time - self.launch_time

    @property
    def wait_time(self) -> float:
        """Time this rank spent waiting for peers before transfer began."""
        return self.start_time - self.launch_time


@dataclass(frozen=True)
class MessageRecord:
    """Transport-layer record: one message on one connection.

    The paper's Fig. 7 communication-slow analysis compares these
    durations across worker pairs.
    """

    comm_id: str
    seq: int
    src_node: int
    src_nic: int
    dst_node: int
    dst_nic: int
    src_ip: str
    dst_ip: str
    qp_num: int
    src_port: int
    message_index: int
    size_bits: float
    post_time: float
    complete_time: float

    @property
    def duration(self) -> float:
        """Transfer duration of this message."""
        return self.complete_time - self.post_time


class MonitoringSink(Protocol):
    """Destination for monitoring records (the C4 agent implements this)."""

    def on_communicator(self, record: CommunicatorRecord) -> None:
        """Receive a communicator-layer record."""

    def on_op_launch(self, record: OpLaunchRecord) -> None:
        """Receive an operation-startup record."""

    def on_op(self, record: OpRecord) -> None:
        """Receive an operation-completion record."""

    def on_message(self, record: MessageRecord) -> None:
        """Receive a transport-layer record."""


@dataclass
class RecordingSink:
    """In-memory sink that appends every record; used by tests and C4D."""

    communicators: list[CommunicatorRecord] = field(default_factory=list)
    launches: list[OpLaunchRecord] = field(default_factory=list)
    ops: list[OpRecord] = field(default_factory=list)
    messages: list[MessageRecord] = field(default_factory=list)

    def on_communicator(self, record: CommunicatorRecord) -> None:
        self.communicators.append(record)

    def on_op_launch(self, record: OpLaunchRecord) -> None:
        self.launches.append(record)

    def on_op(self, record: OpRecord) -> None:
        self.ops.append(record)

    def on_message(self, record: MessageRecord) -> None:
        self.messages.append(record)

    def clear(self) -> None:
        """Drop all captured records."""
        self.communicators.clear()
        self.launches.clear()
        self.ops.clear()
        self.messages.clear()

    def ops_for_seq(self, comm_id: str, seq: int) -> list["OpRecord"]:
        """All per-rank op records of one collective operation."""
        return [r for r in self.ops if r.comm_id == comm_id and r.seq == seq]

    def messages_for_seq(self, comm_id: str, seq: int) -> list["MessageRecord"]:
        """All transport records of one collective operation."""
        return [r for r in self.messages if r.comm_id == comm_id and r.seq == seq]
