"""Tests for the C4 agent plane."""

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import CommunicatorRecord, MessageRecord, OpLaunchRecord, OpRecord
from repro.telemetry.agent import AgentPlane
from repro.telemetry.collector import CentralCollector


def make_plane():
    collector = CentralCollector()
    return collector, AgentPlane(collector)


def test_agents_created_lazily_per_node():
    _collector, plane = make_plane()
    assert plane.agents == {}
    agent = plane.agent(3)
    assert agent.node_id == 3
    assert plane.agent(3) is agent


def test_records_routed_by_producing_node():
    collector, plane = make_plane()
    plane.on_communicator(
        CommunicatorRecord("c", 2, (RankLocation(4, 0), RankLocation(9, 0)))
    )
    plane.on_op(
        OpRecord(
            comm_id="c", seq=0, op_type=OpType.ALLREDUCE, algorithm=Algorithm.RING,
            dtype="fp16", element_count=1, rank=0, location=RankLocation(4, 0),
            launch_time=0.0, start_time=0.0, end_time=1.0,
        )
    )
    plane.on_message(
        MessageRecord(
            comm_id="c", seq=0, src_node=9, src_nic=0, dst_node=4, dst_nic=0,
            src_ip="a", dst_ip="b", qp_num=1, src_port=1, message_index=0,
            size_bits=1.0, post_time=0.0, complete_time=1.0,
        )
    )
    assert plane.agent(4).records_forwarded == 1
    assert plane.agent(9).records_forwarded == 1
    assert len(collector.ops("c")) == 1
    assert len(collector.messages("c")) == 1


def test_launch_records_forwarded():
    collector, plane = make_plane()
    plane.on_communicator(CommunicatorRecord("c", 1, (RankLocation(2, 0),)))
    plane.on_op_launch(
        OpLaunchRecord(
            comm_id="c", seq=0, op_type=OpType.ALLREDUCE, rank=0,
            location=RankLocation(2, 0), launch_time=1.0,
        )
    )
    assert plane.agent(2).records_forwarded == 1
    assert collector.progress["c"].max_launch_seq == 0


def test_clock_stamps_registration():
    collector = CentralCollector()
    now = {"t": 42.0}
    plane = AgentPlane(collector, clock=lambda: now["t"])
    plane.on_communicator(CommunicatorRecord("c", 1, (RankLocation(0, 0),)))
    assert collector.progress["c"].created_at == 42.0
