"""Collector resilience: tombstone eviction and out-of-order records
across a simulated master restart (snapshot -> restore round-trip)."""

import pytest

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import (
    CommunicatorRecord,
    MessageRecord,
    OpLaunchRecord,
    OpRecord,
)
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.collector import CentralCollector


def comm_record(comm="c", size=4):
    return CommunicatorRecord(
        comm_id=comm, size=size, ranks=tuple(RankLocation(0, i) for i in range(size))
    )


def op(comm="c", seq=0, rank=0, end=1.0):
    return OpRecord(
        comm_id=comm,
        seq=seq,
        op_type=OpType.ALLREDUCE,
        algorithm=Algorithm.RING,
        dtype="fp16",
        element_count=8,
        rank=rank,
        location=RankLocation(0, rank),
        launch_time=end - 1.0,
        start_time=end - 0.5,
        end_time=end,
    )


def launch(comm="c", seq=0, rank=0, t=0.0):
    return OpLaunchRecord(
        comm_id=comm, seq=seq, op_type=OpType.ALLREDUCE, rank=rank,
        location=RankLocation(0, rank), launch_time=t,
    )


def message(comm="c", seq=0, complete=1.0):
    return MessageRecord(
        comm_id=comm, seq=seq, src_node=0, src_nic=0, dst_node=1, dst_nic=0,
        src_ip="a", dst_ip="b", qp_num=1, src_port=50000, message_index=0,
        size_bits=10.0, post_time=complete - 0.5, complete_time=complete,
    )


def collector():
    return CentralCollector(metrics=MetricsRegistry())


# ----------------------------------------------------------------------
# Tombstone eviction
# ----------------------------------------------------------------------
def test_tombstone_fifo_evicts_oldest(monkeypatch):
    monkeypatch.setattr(CentralCollector, "TOMBSTONE_CAPACITY", 2)
    c = collector()
    for comm in ("a", "b", "c"):
        c.ingest_communicator(comm_record(comm))
        c.drop_communicator(comm)
    # Capacity 2: "a" was evicted, so its straggler is a hard error
    # again, while "b"/"c" stragglers are silently discarded.
    with pytest.raises(KeyError):
        c.ingest_op(op(comm="a"))
    c.ingest_op(op(comm="b"))
    c.ingest_op(op(comm="c"))


def test_redropping_refreshes_tombstone_order(monkeypatch):
    monkeypatch.setattr(CentralCollector, "TOMBSTONE_CAPACITY", 2)
    c = collector()
    for comm in ("a", "b"):
        c.ingest_communicator(comm_record(comm))
        c.drop_communicator(comm)
    c.drop_communicator("a")  # refresh: "b" is now the oldest
    c.ingest_communicator(comm_record("d"))
    c.drop_communicator("d")
    with pytest.raises(KeyError):
        c.ingest_op(op(comm="b"))
    c.ingest_op(op(comm="a"))  # still tombstoned: silent


def test_reregistration_clears_tombstone(monkeypatch):
    monkeypatch.setattr(CentralCollector, "TOMBSTONE_CAPACITY", 2)
    c = collector()
    c.ingest_communicator(comm_record("a"))
    c.drop_communicator("a")
    c.ingest_communicator(comm_record("a"))  # a new incarnation
    c.ingest_op(op(comm="a", seq=0, rank=0))
    assert c.progress["a"].last_seq[0] == 0


# ----------------------------------------------------------------------
# Out-of-order records across a simulated restart
# ----------------------------------------------------------------------
def restart(c):
    """Snapshot the collector and restore into a fresh instance."""
    successor = collector()
    successor.restore_state(c.snapshot_state())
    return successor


def test_out_of_order_records_across_restart():
    c = collector()
    c.ingest_communicator(comm_record("c", size=2), now=0.0)
    # Records arrive out of order (a lossy channel reorders): seq 2
    # lands first, the restart happens, then the stragglers seq 0/1.
    c.ingest_launch(launch(seq=2, rank=0, t=2.0))
    c.ingest_op(op(seq=2, rank=0, end=3.0))

    c = restart(c)
    c.ingest_launch(launch(seq=0, rank=0, t=0.1))
    c.ingest_op(op(seq=0, rank=0, end=1.0))
    c.ingest_op(op(seq=1, rank=0, end=2.0))
    progress = c.progress["c"]
    # Progress watermarks are max-merged, so the late arrivals never
    # roll them back.
    assert progress.last_seq[0] == 2
    assert progress.last_launch_seq[0] == 2
    assert progress.last_completion_time == 3.0
    assert [r.seq for r in c.ops_for_seq("c", 2)] == [2]


def test_restart_preserves_state_verbatim():
    c = collector()
    c.ingest_communicator(comm_record("c", size=2), now=5.0)
    c.ingest_launch(launch(seq=0, rank=1, t=5.5))
    c.ingest_op(op(seq=0, rank=1, end=6.0))
    c.ingest_message(message(seq=0, complete=6.5))
    c.ingest_communicator(comm_record("gone", size=2), now=7.0)
    c.drop_communicator("gone")
    successor = restart(c)
    assert successor.snapshot_state() == c.snapshot_state()
    # The tombstone survived: stragglers stay silent after the restart.
    successor.ingest_op(op(comm="gone"))


def test_restart_keeps_windows_bounded(monkeypatch):
    monkeypatch.setattr(CentralCollector, "OP_WINDOW", 4)
    c = collector()
    c.ingest_communicator(comm_record("c", size=2))
    for seq in range(4):
        c.ingest_op(op(seq=seq, rank=0, end=float(seq)))
    successor = restart(c)
    successor.ingest_op(op(seq=4, rank=0, end=4.0))
    # The restored deque kept its maxlen: the oldest record fell out.
    assert [r.seq for r in successor.ops("c")] == [1, 2, 3, 4]
