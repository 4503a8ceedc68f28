"""Tests for the monitoring record schemas and RecordingSink."""

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import (
    CommunicatorRecord,
    MessageRecord,
    OpLaunchRecord,
    OpRecord,
    RecordingSink,
)


def op_record(seq=0, rank=0, launch=0.0, start=1.0, end=3.0, comm="c"):
    return OpRecord(
        comm_id=comm,
        seq=seq,
        op_type=OpType.ALLREDUCE,
        algorithm=Algorithm.RING,
        dtype="fp16",
        element_count=1024,
        rank=rank,
        location=RankLocation(0, rank),
        launch_time=launch,
        start_time=start,
        end_time=end,
    )


def message_record(seq=0, src=0, dst=1, post=0.0, complete=1.0, size=100.0, comm="c"):
    return MessageRecord(
        comm_id=comm,
        seq=seq,
        src_node=src,
        src_nic=0,
        dst_node=dst,
        dst_nic=0,
        src_ip="10.0.0.1",
        dst_ip="10.0.0.2",
        qp_num=7,
        src_port=50000,
        message_index=0,
        size_bits=size,
        post_time=post,
        complete_time=complete,
    )


def test_op_record_derived_times():
    record = op_record(launch=1.0, start=2.5, end=4.0)
    assert record.duration == 3.0


def test_message_record_duration():
    assert message_record(post=2.0, complete=3.5).duration == 1.5


def test_recording_sink_accumulates():
    sink = RecordingSink()
    sink.on_communicator(CommunicatorRecord("c", 2, (RankLocation(0, 0), RankLocation(0, 1))))
    sink.on_op_launch(
        OpLaunchRecord("c", 0, OpType.ALLREDUCE, 0, RankLocation(0, 0), 0.0)
    )
    sink.on_op(op_record())
    sink.on_message(message_record())
    assert len(sink.communicators) == 1
    assert len(sink.launches) == 1
    assert len(sink.ops) == 1
    assert len(sink.messages) == 1


def test_recording_sink_clear():
    sink = RecordingSink()
    sink.on_op(op_record())
    sink.clear()
    assert sink.ops == []
