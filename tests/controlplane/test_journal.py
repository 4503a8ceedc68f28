"""Tests for the journal store: write-ahead order, fencing, compaction, recovery."""

import hashlib
import itertools
import json

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.codec import encode
from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import (
    CommunicatorRecord,
    MessageRecord,
    OpLaunchRecord,
    OpRecord,
)
from repro.collective.selectors import PathRequest
from repro.controlplane import (
    C4DControlPlane,
    FencedOut,
    JournalStore,
    ResilientC4PMaster,
    state_digest,
)
from repro.core.c4p import master as c4p_master
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry


def store():
    return JournalStore(metrics=MetricsRegistry())


def test_append_assigns_monotonic_seq():
    s = store()
    epoch = s.open_epoch()
    first = s.append("op", {"x": 1}, epoch)
    second = s.append("op", {"x": 2}, epoch)
    assert (first.seq, second.seq) == (0, 1)
    assert first.epoch == second.epoch == epoch


def test_stale_epoch_is_fenced():
    s = store()
    old = s.open_epoch()
    s.open_epoch()  # a successor claimed writership
    with pytest.raises(FencedOut):
        s.append("op", {}, old)
    with pytest.raises(FencedOut):
        s.snapshot({}, old)
    # The current writer is unaffected.
    s.append("op", {}, s.epoch)


def test_entries_after_uses_absolute_seq_across_compaction():
    s = store()
    epoch = s.open_epoch()
    for i in range(5):
        s.append("op", {"i": i}, epoch)
    s.snapshot({"n": 5}, epoch)
    for i in range(5, 8):
        s.append("op", {"i": i}, epoch)
    assert s.compact() == 5
    snap = s.latest_snapshot()
    assert [e.payload["i"] for e in s.entries_after(snap.seq)] == [5, 6, 7]
    # Sequence numbers keep counting after compaction — replay positions
    # stay stable even though the prefix storage is gone.
    assert s.append("op", {"i": 8}, epoch).seq == 8


def test_entries_after_on_empty_store():
    s = store()
    assert s.entries_after(0) == []
    assert s.entries_after(5) == []
    assert s.compact() == 0


def test_entries_after_boundaries():
    s = store()
    epoch = s.open_epoch()
    for i in range(6):
        s.append("op", {"i": i}, epoch)
    s.snapshot({"n": 6}, epoch)
    assert [e.seq for e in s.entries_after(0)] == [0, 1, 2, 3, 4, 5]
    assert s.entries_after(6) == []  # after the last entry
    assert s.entries_after(60) == []
    assert s.compact() == 6
    assert s.compact() == 0  # nothing left to drop
    for i in range(6, 9):
        s.append("op", {"i": i}, epoch)
    # Before the first retained entry: the whole retained journal.
    assert [e.seq for e in s.entries_after(0)] == [6, 7, 8]
    assert [e.seq for e in s.entries_after(6)] == [6, 7, 8]
    # Exactly on a retained entry.
    assert [e.seq for e in s.entries_after(7)] == [7, 8]
    s.snapshot({"n": 9}, epoch)
    s.append("op", {"i": 9}, epoch)
    s.append("op", {"i": 10}, epoch)
    assert s.compact() == 3
    assert [e.seq for e in s.entries] == [9, 10]
    assert [e.seq for e in s.entries_after(9)] == [9, 10]
    assert [e.seq for e in s.entries_after(10)] == [10]
    assert s.entries_after(11) == []


def test_compact_without_snapshot_is_noop():
    s = store()
    epoch = s.open_epoch()
    s.append("op", {}, epoch)
    assert s.compact() == 0
    assert len(s.entries) == 1


def test_latest_snapshot_none_before_first():
    assert store().latest_snapshot() is None


def test_state_digest_is_canonical():
    # Tuples and lists encode identically; key order is irrelevant.
    assert state_digest({"a": (1, 2)}) == state_digest({"a": [1, 2]})
    assert state_digest({"a": 1, "b": 2}) == state_digest({"b": 2, "a": 1})
    assert state_digest({"a": 1}) != state_digest({"a": 2})


def test_encode_converts_nested_tuples():
    assert encode({"k": (1, (2, 3))}) == {"k": [1, [2, 3]]}


def jsonable_digest(state) -> str:
    """The digest as first defined: canonical JSON of the codec's encoding."""
    canonical = json.dumps(encode(state), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def c4d_plane_state() -> dict:
    """A C4D plane that ingested all four record kinds and flagged anomalies.

    The op record carries both enums (``OpType`` and ``Algorithm``).
    """
    metrics = MetricsRegistry()
    plane = C4DControlPlane(
        ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=0),
        backup_nodes=[14, 15],
        metrics=metrics,
    )
    ranks = tuple(RankLocation(node, 0) for node in range(4))
    plane.ingest_communicator(CommunicatorRecord("c", 4, ranks), now=0.0)
    for seq in range(2):
        for node in range(4):
            dst = (node + 1) % 4
            duration = 4.0 if node == 1 else 1.0
            plane.ingest_message(
                MessageRecord(
                    "c", seq, node, 0, dst, 0, "a", "b", 1, 1, 0, 100.0, 10.0, 10.0 + duration
                )
            )
    plane.ingest_op(
        OpRecord(
            "c", 0, OpType.ALLREDUCE, Algorithm.RING, "fp16", 1024, 0, ranks[0], 10.0, 10.0, 11.0
        )
    )
    for rank in range(3):
        plane.ingest_launch(OpLaunchRecord("c", 2, OpType.ALLREDUCE, rank, ranks[rank], 20.0))
    plane.evaluate(60.0)
    assert plane.master.anomalies
    return plane.state()


def c4p_master_state() -> dict:
    master = ResilientC4PMaster(
        ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=1),
        metrics=MetricsRegistry(),
    )
    allocs = master.allocate(
        PathRequest("comm0", "job0", src_node=0, src_nic=0, dst_node=4, dst_nic=0, num_qps=4)
    )
    master.notify_link_failure(allocs[0].path[0], now=10.0)
    master.maintenance(now=30.0)
    return master.snapshot_state()


@pytest.mark.parametrize(
    "make_state",
    [
        lambda: {"t": (1, [2.5, (3, {"u": ("x", None)})]), "l": [(), {"e": (True,)}]},
        c4d_plane_state,
        c4p_master_state,
    ],
    ids=["nested", "c4d_plane", "c4p_master"],
)
def test_state_digest_equals_jsonable_digest(make_state):
    state = make_state()
    assert state_digest(state) == jsonable_digest(state)


#: Digests of the two states above, pinned when snapshots still held
#: encodings.  The jsonable comparison cannot see a drift that moves both
#: of its sides; these pins can.
C4D_PLANE_DIGEST = "81a0ef20690bc6606e530c894e3aeed4bfa4ec435598215cd9e621a9d1e383a2"
C4P_MASTER_DIGEST = "49654cb60929006129c43fdcbe5cc6870943fd7ca578359a82860cb6942597ad"


@pytest.mark.parametrize(
    "make_state, digest",
    [(c4d_plane_state, C4D_PLANE_DIGEST), (c4p_master_state, C4P_MASTER_DIGEST)],
    ids=["c4d_plane", "c4p_master"],
)
def test_state_digest_is_pinned(make_state, digest, monkeypatch):
    # QP numbers come from a module-wide counter; start it where a fresh
    # process does, so the digest does not depend on test order.
    monkeypatch.setattr(c4p_master, "_qp_counter", itertools.count(500000))
    assert state_digest(make_state()) == digest


def test_entries_counter_per_kind():
    metrics = MetricsRegistry()
    s = JournalStore(metrics=metrics)
    epoch = s.open_epoch()
    for kind in ("op", "message", "op", "op"):
        s.append(kind, {}, epoch)
    family = next(
        f for f in metrics.families() if f.name == "controlplane_journal_entries_total"
    )
    assert {labels["kind"]: child.value for labels, child in family.series()} == {
        "op": 3.0,
        "message": 1.0,
    }


def recover_calls(s, **kwargs):
    """Run :meth:`JournalStore.recover` and record what it handed over."""
    restored, replayed = [], []
    epoch, count = s.recover(restored.append, replayed.append, **kwargs)
    return epoch, count, restored, replayed


def test_recover_restores_latest_snapshot_then_replays_suffix():
    s = store()
    epoch = s.open_epoch()
    s.append("op", {"i": 0}, epoch)
    s.snapshot({"n": 1}, epoch)
    s.append("op", {"i": 1}, epoch)
    s.snapshot({"n": 2}, epoch)
    for i in range(2, 5):
        s.append("op", {"i": i}, epoch)
    new_epoch, count, restored, replayed = recover_calls(s)
    assert restored == [{"n": 2}]
    assert [e.seq for e in replayed] == [2, 3, 4]
    assert [e.payload["i"] for e in replayed] == [2, 3, 4]
    assert count == 3
    assert new_epoch == s.epoch == epoch + 1


def test_recover_without_snapshot_replays_everything():
    s = store()
    epoch = s.open_epoch()
    for i in range(4):
        s.append("op", {"i": i}, epoch)
    new_epoch, count, restored, replayed = recover_calls(s)
    assert restored == []
    assert [e.seq for e in replayed] == [0, 1, 2, 3]
    assert count == 4
    assert new_epoch == epoch + 1
    # The recovering writer holds the only current epoch.
    with pytest.raises(FencedOut):
        s.append("op", {}, epoch)


def test_recover_counts_failovers_only_for_standby_promotions():
    metrics = MetricsRegistry()
    s = JournalStore(metrics=metrics)
    s.open_epoch()
    recover_calls(s)
    recover_calls(s, standby=True)
    recover_calls(s)
    assert (s.recoveries, s.failovers) == (3, 1)
    families = {f.name: f for f in metrics.families()}
    assert families["controlplane_recoveries_total"].value == 3
    assert families["controlplane_failovers_total"].value == 1
    ((_labels, replay_seconds),) = families["controlplane_replay_seconds"].series()
    assert replay_seconds.count == 3
