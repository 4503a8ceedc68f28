"""Tests for the C4 agent plane."""

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import CommunicatorRecord, MessageRecord, OpLaunchRecord, OpRecord
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.agent import AgentPlane
from repro.telemetry.collector import CentralCollector


class BeatLog:
    """A lease-table stand-in that records every heartbeat in call order."""

    def __init__(self):
        self.beats = []

    def heartbeat(self, node_id, now):
        self.beats.append((node_id, now))


class DeferredChannel:
    """A lossy-channel stand-in that holds each delivery until released."""

    def __init__(self):
        self.pending = []

    def send(self, deliver):
        self.pending.append(deliver)

    def release(self):
        pending, self.pending = self.pending, []
        for deliver in pending:
            deliver()


def comm(comm_id="c", nodes=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)):
    return CommunicatorRecord(comm_id, len(nodes), tuple(RankLocation(n, 0) for n in nodes))


def op(node, seq=0, comm_id="c"):
    return OpRecord(
        comm_id=comm_id, seq=seq, op_type=OpType.ALLREDUCE, algorithm=Algorithm.RING,
        dtype="fp16", element_count=1, rank=node, location=RankLocation(node, 0),
        launch_time=0.0, start_time=0.0, end_time=1.0 + seq,
    )


def message(src_node, seq=0, comm_id="c"):
    return MessageRecord(
        comm_id=comm_id, seq=seq, src_node=src_node, src_nic=0, dst_node=0, dst_nic=0,
        src_ip="a", dst_ip="b", qp_num=1, src_port=1, message_index=0,
        size_bits=1.0, post_time=0.0, complete_time=1.0 + seq,
    )


def ops_by_node(collector, comm_id="c"):
    return [(r.location.node, r.seq) for r in collector.ops(comm_id)]


def test_agents_created_lazily_per_node():
    collector = CentralCollector()
    leases = BeatLog()
    plane = AgentPlane(collector, leases=leases)
    assert plane.beat_all(0.0) == 0
    plane.on_communicator(comm())
    plane.on_op(op(3))
    assert plane.beat_all(5.0) == 1
    assert leases.beats[-1] == (3, 5.0)


def test_started_agent_heartbeats_before_its_first_record():
    leases = BeatLog()
    plane = AgentPlane(CentralCollector(), leases=leases)
    plane.start_agent(6)
    plane.start_agent(6)
    assert plane.beat_all(2.0) == 1
    assert leases.beats == [(6, 2.0)]


def test_records_routed_by_producing_node():
    collector = CentralCollector()
    leases = BeatLog()
    now = {"t": 0.0}
    plane = AgentPlane(collector, clock=lambda: now["t"], leases=leases)
    plane.on_communicator(comm())
    now["t"] = 1.0
    plane.on_op(op(4))
    now["t"] = 2.0
    plane.on_message(message(9))
    # Each delivery renews the producing node's lease: the op's rank
    # node, the message's sender.
    assert leases.beats == [(4, 1.0), (9, 2.0)]
    assert len(collector.ops("c")) == 1
    assert len(collector.messages("c")) == 1
    # A dead sender's message vanishes even though its receiver lives.
    plane.kill_agent(9)
    plane.on_message(message(9, seq=1))
    plane.on_op(op(4, seq=1))
    assert len(collector.messages("c")) == 1
    assert len(collector.ops("c")) == 2


def test_launch_records_forwarded():
    collector = CentralCollector()
    leases = BeatLog()
    plane = AgentPlane(collector, clock=lambda: 3.0, leases=leases)
    plane.on_communicator(CommunicatorRecord("c", 1, (RankLocation(2, 0),)))
    plane.on_op_launch(
        OpLaunchRecord(
            comm_id="c", seq=0, op_type=OpType.ALLREDUCE, rank=0,
            location=RankLocation(2, 0), launch_time=1.0,
        )
    )
    assert leases.beats == [(2, 3.0)]
    assert collector.progress["c"].max_launch_seq == 0


def test_clock_stamps_registration():
    collector = CentralCollector()
    now = {"t": 42.0}
    plane = AgentPlane(collector, clock=lambda: now["t"])
    plane.on_communicator(CommunicatorRecord("c", 1, (RankLocation(0, 0),)))
    assert collector.progress["c"].created_at == 42.0


def test_records_buffer_while_suspended():
    collector = CentralCollector()
    leases = BeatLog()
    registry = MetricsRegistry()
    plane = AgentPlane(collector, leases=leases, metrics=registry)
    plane.on_communicator(comm())
    plane.suspend()
    plane.on_op(op(1))
    plane.on_message(message(2))
    plane.on_op(op(2))
    assert collector.ops("c") == []
    assert collector.messages("c") == []
    # A suspended master hears no heartbeats either.
    assert leases.beats == []
    assert plane.beat_all(1.0) == 0
    assert registry.gauge("telemetry_agent_buffered_records").value == 3.0
    assert registry.counter("telemetry_agent_records_forwarded_total").value == 0.0


def test_resume_backfills_communicators_then_each_node_buffer_in_arrival_order():
    collector = CentralCollector()
    registry = MetricsRegistry()
    now = {"t": 0.0}
    plane = AgentPlane(collector, clock=lambda: now["t"], metrics=registry)
    plane.on_communicator(comm("a"))
    plane.on_op(op(5, comm_id="a"))  # node 5 starts before node 2
    plane.suspend()
    now["t"] = 7.0
    plane.on_communicator(comm("b"))
    plane.on_op(op(2, seq=0, comm_id="b"))
    plane.on_op(op(5, seq=0, comm_id="b"))
    plane.on_op(op(2, seq=1, comm_id="b"))
    plane.on_message(message(2, comm_id="b"))
    assert "b" not in collector.progress
    assert plane.resume(10.0) == 5
    # "b" registered first (else its records would be dropped as unknown),
    # stamped with its registration time, not the resume time.
    assert collector.progress["b"].created_at == 7.0
    assert ops_by_node(collector, "b") == [(5, 0), (2, 0), (2, 1)]
    assert len(collector.messages("b")) == 1
    assert plane.backfilled_records == 5
    assert registry.counter("telemetry_agent_backfilled_records_total").value == 5.0
    assert registry.counter("telemetry_agent_flushes_total").value == 1.0
    assert registry.counter("telemetry_agent_records_forwarded_total").value == 5.0
    assert registry.gauge("telemetry_agent_buffered_records").value == 0.0
    # Back to live delivery.
    plane.on_op(op(2, seq=2, comm_id="b"))
    assert ops_by_node(collector, "b")[-1] == (2, 2)


def test_beat_all_and_resume_heartbeat_live_agents_in_sorted_order():
    collector = CentralCollector()
    leases = BeatLog()
    plane = AgentPlane(collector, leases=leases)
    plane.on_communicator(comm())
    for node in (7, 3, 5, 1):
        plane.on_op(op(node))
    plane.kill_agent(5)
    leases.beats.clear()
    assert plane.beat_all(10.0) == 3
    assert leases.beats == [(1, 10.0), (3, 10.0), (7, 10.0)]
    leases.beats.clear()
    plane.suspend()
    plane.resume(20.0)
    assert leases.beats == [(1, 20.0), (3, 20.0), (7, 20.0)]


def test_kill_agent_drops_only_that_nodes_records():
    collector = CentralCollector()
    registry = MetricsRegistry()
    plane = AgentPlane(collector, metrics=registry)
    plane.on_communicator(comm())
    plane.suspend()
    plane.on_op(op(1, seq=0))
    plane.on_op(op(2, seq=0))
    plane.on_op(op(1, seq=1))
    plane.kill_agent(2)
    plane.on_op(op(2, seq=1))  # a dead agent's record vanishes on arrival
    assert registry.counter("telemetry_agent_records_dropped_total").value == 2.0
    assert plane.resume(1.0) == 2
    assert ops_by_node(collector) == [(1, 0), (1, 1)]
    plane.on_op(op(2, seq=2))
    assert ops_by_node(collector) == [(1, 0), (1, 1)]
    assert registry.counter("telemetry_agent_records_dropped_total").value == 3.0


def test_kill_agent_lowers_buffered_gauge_by_dropped_count():
    registry = MetricsRegistry()
    plane = AgentPlane(CentralCollector(), metrics=registry)
    plane.on_communicator(comm())
    plane.suspend()
    for seq in range(3):
        plane.on_op_launch(
            OpLaunchRecord(
                comm_id="c", seq=seq, op_type=OpType.ALLREDUCE, rank=2,
                location=RankLocation(2, 0), launch_time=float(seq),
            )
        )
    plane.on_op(op(1))
    assert registry.gauge("telemetry_agent_buffered_records").value == 4.0
    plane.kill_agent(2)
    assert registry.counter("telemetry_agent_records_dropped_total").value == 3.0
    assert registry.gauge("telemetry_agent_buffered_records").value == 1.0


def test_revive_agent_heartbeats_and_delivers_again():
    collector = CentralCollector()
    leases = BeatLog()
    plane = AgentPlane(collector, clock=lambda: 1.0, leases=leases)
    plane.on_communicator(comm())
    plane.kill_agent(3)
    plane.on_op(op(3, seq=0))
    assert leases.beats == []
    plane.revive_agent(3, now=9.0)
    assert leases.beats == [(3, 9.0)]
    plane.on_op(op(3, seq=1))
    assert ops_by_node(collector) == [(3, 1)]
    assert leases.beats == [(3, 9.0), (3, 1.0)]


def test_retarget_sends_later_and_backfilled_records_to_new_collector():
    old, new = CentralCollector(), CentralCollector()
    plane = AgentPlane(old)
    plane.on_communicator(comm())
    plane.on_op(op(1, seq=0))
    plane.suspend()
    plane.on_op(op(1, seq=1))
    new.ingest_communicator(comm())
    plane.retarget(new)
    plane.resume(1.0)
    plane.on_op(op(4, seq=2))
    assert ops_by_node(old) == [(1, 0)]
    assert ops_by_node(new) == [(1, 1), (4, 2)]


def test_lossy_channel_delivers_through_send():
    collector = CentralCollector()
    channel = DeferredChannel()
    registry = MetricsRegistry()
    plane = AgentPlane(collector, channel=channel, metrics=registry)
    # Registration is not a record: it lands synchronously.
    plane.on_communicator(comm())
    plane.on_op(op(1))
    plane.on_message(message(2))
    assert len(channel.pending) == 2
    assert collector.ops("c") == []
    assert registry.counter("telemetry_agent_records_forwarded_total").value == 2.0
    channel.release()
    assert ops_by_node(collector) == [(1, 0)]
    assert len(collector.messages("c")) == 1
    # Backfill crosses the channel too.
    plane.suspend()
    plane.on_op(op(1, seq=1))
    plane.resume(1.0)
    assert len(channel.pending) == 1
    channel.release()
    assert ops_by_node(collector) == [(1, 0), (1, 1)]
