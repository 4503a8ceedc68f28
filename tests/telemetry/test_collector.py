"""Tests for the central collector."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import CommunicatorRecord, MessageRecord, OpLaunchRecord, OpRecord
from repro.core.c4d.delay_matrix import build_delay_matrix, build_delay_matrix_reference
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.collector import CentralCollector
from tests.core_c4d.test_delay_matrix import EDGE, TIED, same_score


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


def test_ingest_requires_registration():
    collector = CentralCollector()
    with pytest.raises(KeyError):
        collector.ingest_op(op())


def test_progress_tracking():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record(size=2), now=5.0)
    progress = collector.progress["c"]
    assert progress.created_at == 5.0
    assert progress.min_seq == -1
    collector.ingest_op(op(seq=0, rank=0))
    assert progress.last_seq == {0: 0, 1: -1}
    assert progress.min_seq == -1  # rank 1 hasn't completed
    collector.ingest_op(op(seq=0, rank=1))
    assert progress.min_seq == 0


def test_launch_tracking():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record(size=2))
    collector.ingest_launch(launch(seq=3, rank=0, t=9.0))
    progress = collector.progress["c"]
    assert progress.max_launch_seq == 3
    assert progress.last_launch_time == 9.0


def test_ops_since_filter():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record())
    collector.ingest_op(op(seq=0, end=1.0))
    collector.ingest_op(op(seq=1, end=5.0))
    assert len(collector.ops("c", since=2.0)) == 1


def test_messages_since_filter():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record())
    collector.ingest_message(message(seq=0, complete=1.0))
    collector.ingest_message(message(seq=1, complete=9.0))
    assert len(collector.messages("c", since=5.0)) == 1


def test_ops_for_seq():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record())
    collector.ingest_op(op(seq=2, rank=0))
    collector.ingest_op(op(seq=2, rank=1))
    collector.ingest_op(op(seq=3, rank=0))
    assert len(collector.ops_for_seq("c", 2)) == 2


def test_launches_for_seq():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record())
    collector.ingest_launch(launch(seq=1, rank=0))
    collector.ingest_launch(launch(seq=1, rank=1))
    assert len(collector.launches_for_seq("c", 1)) == 2


def test_latest_seqs():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record())
    for seq in range(5):
        collector.ingest_op(op(seq=seq))
    assert collector.latest_seqs("c", 2) == [3, 4]


def test_window_bound(monkeypatch):
    monkeypatch.setattr(CentralCollector, "OP_WINDOW", 3)
    collector = CentralCollector()
    collector.ingest_communicator(comm_record())
    for seq in range(10):
        collector.ingest_op(op(seq=seq))
    assert len(collector.ops("c")) == 3


def test_comm_ids():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record("a"))
    collector.ingest_communicator(comm_record("b"))
    assert set(collector.comm_ids()) == {"a", "b"}


def test_drop_communicator_discards_stragglers():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record())
    collector.ingest_op(op(seq=0))
    collector.drop_communicator("c")
    assert collector.comm_ids() == []
    # Records still in flight on a lossy channel arrive late: silently
    # discarded, not a KeyError.
    collector.ingest_op(op(seq=1))
    collector.ingest_launch(launch(seq=1, rank=0))
    assert collector.comm_ids() == []


def test_unregistered_communicator_still_raises():
    collector = CentralCollector()
    with pytest.raises(KeyError):
        collector.ingest_op(op(seq=0))


def test_reregistering_dropped_communicator_revives_it():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record())
    collector.drop_communicator("c")
    collector.ingest_communicator(comm_record())
    collector.ingest_op(op(seq=0))
    assert collector.progress["c"].last_seq[0] == 0


# ----------------------------------------------------------------------
# Bounded-window eviction accounting
# ----------------------------------------------------------------------
def counter_value(registry, name, **labels):
    family = registry.counter(name, labels=tuple(labels))
    return (family.labels(**labels) if labels else family).value


def test_op_window_evictions_counted_only_on_overflow(monkeypatch):
    monkeypatch.setattr(CentralCollector, "OP_WINDOW", 3)
    registry = MetricsRegistry()
    collector = CentralCollector(metrics=registry)
    collector.ingest_communicator(comm_record())
    for seq in range(5):
        collector.ingest_op(op(seq=seq))
    # 5 ingested, window holds 3: exactly 2 evictions, and the window
    # keeps the newest records.
    assert len(collector.ops("c")) == 3
    assert [r.seq for r in collector.ops("c")] == [2, 3, 4]
    assert counter_value(registry, "telemetry_records_ingested_total", kind="op") == 5
    assert counter_value(registry, "telemetry_window_evictions_total", kind="op") == 2


def test_eviction_counters_are_per_kind(monkeypatch):
    monkeypatch.setattr(CentralCollector, "OP_WINDOW", 2)
    monkeypatch.setattr(CentralCollector, "MESSAGE_WINDOW", 1)
    registry = MetricsRegistry()
    collector = CentralCollector(metrics=registry)
    collector.ingest_communicator(comm_record())
    collector.ingest_launch(launch(seq=0))
    collector.ingest_launch(launch(seq=1))
    collector.ingest_launch(launch(seq=2))  # launches share OP_WINDOW
    collector.ingest_message(message(seq=0))
    collector.ingest_message(message(seq=1))
    assert counter_value(registry, "telemetry_window_evictions_total", kind="launch") == 1
    assert counter_value(registry, "telemetry_window_evictions_total", kind="message") == 1
    assert counter_value(registry, "telemetry_window_evictions_total", kind="op") == 0


def test_straggler_records_counted():
    registry = MetricsRegistry()
    collector = CentralCollector(metrics=registry)
    collector.ingest_communicator(comm_record())
    collector.drop_communicator("c")
    collector.ingest_op(op(seq=1))
    collector.ingest_message(message(seq=1))
    assert counter_value(registry, "telemetry_straggler_records_total") == 2
    # Stragglers are discarded, not ingested.
    assert counter_value(registry, "telemetry_records_ingested_total", kind="op") == 0


def test_registered_communicators_gauge_tracks_lifecycle():
    registry = MetricsRegistry()
    collector = CentralCollector(metrics=registry)
    gauge = registry.gauge("telemetry_registered_communicators")
    collector.ingest_communicator(comm_record("a"))
    collector.ingest_communicator(comm_record("b"))
    assert gauge.value == 2
    collector.drop_communicator("a")
    assert gauge.value == 1


# ----------------------------------------------------------------------
# Out-of-order records must not regress progress bookkeeping
# ----------------------------------------------------------------------
def test_out_of_order_ops_do_not_regress_progress():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record(size=2))
    collector.ingest_op(op(seq=5, rank=0, end=50.0))
    # A delayed record for an older op arrives late (lossy channel
    # reordering): the per-rank high-water marks must not move backward.
    collector.ingest_op(op(seq=2, rank=0, end=20.0))
    progress = collector.progress["c"]
    assert progress.last_seq == {0: 5, 1: -1}  # rank 1 still silent
    assert progress.last_completion_time == 50.0
    assert progress.min_seq == -1


def test_out_of_order_launches_do_not_regress_progress():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record(size=2))
    collector.ingest_launch(launch(seq=4, rank=1, t=40.0))
    collector.ingest_launch(launch(seq=1, rank=1, t=10.0))
    progress = collector.progress["c"]
    assert progress.last_launch_seq[1] == 4
    assert progress.last_launch_time == 40.0
    assert progress.max_launch_seq == 4


def test_out_of_order_records_still_stored_for_queries():
    collector = CentralCollector()
    collector.ingest_communicator(comm_record())
    collector.ingest_op(op(seq=5, rank=0, end=50.0))
    collector.ingest_op(op(seq=2, rank=0, end=20.0))
    # Detectors query by seq regardless of arrival order.
    assert len(collector.ops_for_seq("c", 2)) == 1
    assert collector.latest_seqs("c", 10) == [2, 5]


# -- seq-indexed queries against linear scans over a model window -------

COMMS = ("a", "b")
actions = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(("op", "launch")),
            st.sampled_from(COMMS),
            st.integers(min_value=0, max_value=5),  # seq, arriving out of order
            st.integers(min_value=0, max_value=3),  # rank
        ),
        st.tuples(st.sampled_from(("drop", "register")), st.sampled_from(COMMS)),
        st.just(("restore",)),
    ),
    max_size=60,
)


class ModelWindows:
    """Bounded record windows kept the obvious way, queried by scanning."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.ops: dict[str, deque] = {}
        self.launches: dict[str, deque] = {}

    def register(self, comm: str) -> None:
        self.ops[comm] = deque(maxlen=self.window)
        self.launches[comm] = deque(maxlen=self.window)

    def drop(self, comm: str) -> None:
        self.ops.pop(comm, None)
        self.launches.pop(comm, None)

    def ops_for_seq(self, comm: str, seq: int) -> list:
        return [r for r in self.ops.get(comm, ()) if r.seq == seq]

    def launches_for_seq(self, comm: str, seq: int) -> list:
        return [r for r in self.launches.get(comm, ()) if r.seq == seq]

    def latest_seqs(self, comm: str, count: int) -> list:
        return sorted({r.seq for r in self.ops.get(comm, ())})[-count:]


@given(st.integers(min_value=0, max_value=6), actions)
@settings(max_examples=200, deadline=None)
def test_seq_queries_match_linear_scans(window, steps):
    def fresh():
        collector = CentralCollector(metrics=MetricsRegistry())
        collector.OP_WINDOW = window  # the class constant, patched per instance
        return collector

    collector = fresh()
    model = ModelWindows(window)
    for comm in COMMS:
        collector.ingest_communicator(comm_record(comm))
        model.register(comm)
    for t, step in enumerate(steps):
        kind = step[0]
        if kind == "op":
            _, comm, seq, rank = step
            collector.ingest_op(op(comm, seq, rank, end=float(t)))
            if comm in model.ops:
                model.ops[comm].append(op(comm, seq, rank, end=float(t)))
        elif kind == "launch":
            _, comm, seq, rank = step
            collector.ingest_launch(launch(comm, seq, rank, t=float(t)))
            if comm in model.launches:
                model.launches[comm].append(launch(comm, seq, rank, t=float(t)))
        elif kind == "drop":
            collector.drop_communicator(step[1])
            model.drop(step[1])
        elif kind == "register":
            collector.ingest_communicator(comm_record(step[1]))
            model.register(step[1])
        else:
            restored = fresh()
            restored.restore_state(collector.snapshot_state())
            collector = restored
        snapshot = collector.snapshot_state()
        assert snapshot["ops"] == {comm: tuple(w) for comm, w in model.ops.items()}
        assert snapshot["launches"] == {comm: tuple(w) for comm, w in model.launches.items()}
        assert snapshot["messages"] == {comm: () for comm in model.ops}
        for comm in COMMS:
            assert collector.ops(comm) == list(model.ops.get(comm, ()))
            for seq in range(6):
                assert collector.ops_for_seq(comm, seq) == model.ops_for_seq(comm, seq)
                assert collector.launches_for_seq(comm, seq) == model.launches_for_seq(
                    comm, seq
                )
            for count in range(1, 4):
                assert collector.latest_seqs(comm, count) == model.latest_seqs(comm, count)


# -- the windowed delay matrix against the record-built reference -------

samples = st.one_of(
    st.sampled_from(TIED), st.sampled_from(EDGE), st.floats(min_value=1e-9, max_value=1e9)
)
#: Few pairs, so each holds several samples and first appearances move
#: as the window slides.
PAIRS = ((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 1, 1), (1, 1, 0, 1))
#: Whole seconds, so completions tie with each other and with ``since``.
instants = st.integers(min_value=0, max_value=8).map(float)
message_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("message"),
            st.sampled_from(COMMS),
            st.integers(min_value=0, max_value=5),  # seq
            st.sampled_from(PAIRS),
            st.one_of(st.just(100.0), samples),  # size
            samples,  # duration
            st.one_of(instants, st.sampled_from(EDGE)),  # completion, out of order
        ),
        st.tuples(st.sampled_from(("drop", "register")), st.sampled_from(COMMS)),
        st.just(("restore",)),
    ),
    max_size=60,
)


@given(
    st.integers(min_value=0, max_value=8),
    message_steps,
    st.lists(st.one_of(st.just(float("-inf")), instants), min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_message_view_matches_reference_build(window, steps, sinces):
    def fresh():
        collector = CentralCollector(metrics=MetricsRegistry())
        collector.MESSAGE_WINDOW = window  # the class constant, patched per instance
        return collector

    collector = fresh()
    model = {}  # comm -> its message window, kept the obvious way
    for comm in COMMS:
        collector.ingest_communicator(comm_record(comm))
        model[comm] = deque(maxlen=window)
    for step in steps:
        kind = step[0]
        if kind == "message":
            _, comm, seq, (src, src_nic, dst, dst_nic), size, duration, complete = step
            record = MessageRecord(
                comm_id=comm, seq=seq, src_node=src, src_nic=src_nic, dst_node=dst,
                dst_nic=dst_nic, src_ip="a", dst_ip="b", qp_num=1, src_port=50000,
                message_index=0, size_bits=size, post_time=complete - duration,
                complete_time=complete,
            )
            collector.ingest_message(record)
            if comm in model:
                model[comm].append(record)
        elif kind == "drop":
            collector.drop_communicator(step[1])
            model.pop(step[1], None)
        elif kind == "register":
            collector.ingest_communicator(comm_record(step[1]))
            model[step[1]] = deque(maxlen=window)
        else:
            restored = fresh()
            restored.restore_state(collector.snapshot_state())
            collector = restored
        snapshot = collector.snapshot_state()
        assert snapshot["messages"] == {comm: tuple(w) for comm, w in model.items()}
        assert snapshot["ops"] == snapshot["launches"] == {comm: () for comm in model}
        for comm in COMMS:
            for since in sinces:
                view = collector.message_view(comm, since)
                records = collector.messages(comm, since)
                assert len(view) == len(records)
                assert view.rows["seq"].tolist() == [r.seq for r in records]
                fast = list(build_delay_matrix(view).scores.items())
                reference = list(build_delay_matrix_reference(records).scores.items())
                assert [key for key, _ in fast] == [key for key, _ in reference]
                for (_, a), (_, b) in zip(fast, reference):
                    assert same_score(a, b), (a, b)
