"""Tests for the journal store: write-ahead order, fencing, compaction, recovery."""

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology, PathChoice
from repro.codec import canonical_pairs, encode
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
from repro.core.c4d.events import Anomaly, AnomalyType, Suspect, SuspectKind
from repro.core.c4d.steering import SteeringAction
from repro.core.c4p import master as c4p_master
from repro.core.c4p.health import LinkHealthState
from repro.netsim.network import FlowNetwork
from repro.netsim.routing import FiveTuple
from repro.obs.metrics import MetricsRegistry


def store():
    return JournalStore(metrics=MetricsRegistry())


def seqs(s: JournalStore, seq: int = 0) -> list[int]:
    """Sequence numbers of the rows ``s.entries_after(seq)`` yields."""
    return [row[0] for row in s.entries_after(seq)]


def test_append_assigns_monotonic_seq():
    s = store()
    epoch = s.open_epoch()
    s.append("op", {"x": 1}, epoch)
    s.append("op", {"x": 2}, epoch)
    assert list(s.entries_after(0)) == [(0, epoch, "op", {"x": 1}), (1, epoch, "op", {"x": 2})]
    assert (s.epochs, s.kinds, s.payloads) == ([epoch, epoch], ["op", "op"], [{"x": 1}, {"x": 2}])


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
    assert [row[3]["i"] for row in s.entries_after(snap.seq)] == [5, 6, 7]
    # Sequence numbers keep counting after compaction — replay positions
    # stay stable even though the prefix storage is gone.
    s.append("op", {"i": 8}, epoch)
    assert seqs(s) == [5, 6, 7, 8]


def test_entries_after_on_empty_store():
    s = store()
    assert list(s.entries_after(0)) == []
    assert list(s.entries_after(5)) == []
    assert s.compact() == 0


def test_entries_after_boundaries():
    s = store()
    epoch = s.open_epoch()
    for i in range(6):
        s.append("op", {"i": i}, epoch)
    s.snapshot({"n": 6}, epoch)
    assert seqs(s, 0) == [0, 1, 2, 3, 4, 5]
    assert seqs(s, 6) == []  # after the last entry
    assert seqs(s, 60) == []
    assert s.compact() == 6
    assert s.compact() == 0  # nothing left to drop
    for i in range(6, 9):
        s.append("op", {"i": i}, epoch)
    # Before the first retained entry: the whole retained journal.
    assert seqs(s, 0) == [6, 7, 8]
    assert seqs(s, 6) == [6, 7, 8]
    # Exactly on a retained entry.
    assert seqs(s, 7) == [7, 8]
    s.snapshot({"n": 9}, epoch)
    s.append("op", {"i": 9}, epoch)
    s.append("op", {"i": 10}, epoch)
    assert s.compact() == 3
    assert (s.first_seq, len(s)) == (9, 2)
    assert [row[3] for row in s.entries_after(0)] == [{"i": 9}, {"i": 10}]
    assert seqs(s, 9) == [9, 10]
    assert seqs(s, 10) == [10]
    assert seqs(s, 11) == []


def test_compact_without_snapshot_is_noop():
    s = store()
    epoch = s.open_epoch()
    s.append("op", {}, epoch)
    assert s.compact() == 0
    assert len(s) == 1


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


def reference_digest(state) -> str:
    """The digest's definition: SHA-256 of ``json.dumps`` with the codec."""
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"), default=encode)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-7, 2.5]
SPECIAL_TEXT = ["", "é", "日本", '"q"', "back\\slash", "\n\t\x00\x1f", "\ud800", "\u2028"]


@dataclass
class Labelled(dict):
    """A dataclass ``json.dumps`` writes as the (empty) dict it is."""

    label: str = ""


class Entry(NamedTuple):
    """A named tuple ``json.dumps`` writes as the list it is."""

    seq: int
    epoch: int
    kind: str
    payload: dict


texts = st.one_of(st.text(max_size=6), st.sampled_from(SPECIAL_TEXT))
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
# What a hint promises, and what a field may hold instead: a bool in an
# int field, an int or a float subclass in a float field, None anywhere
# a hint is ``Optional``.
ints = st.one_of(st.integers(), st.booleans())
float_fields = st.one_of(floats, st.integers(), st.booleans(), floats.map(np.float64))
optional_ints = st.one_of(st.none(), ints)

locations = st.builds(RankLocation, ints, ints)
suspects = st.builds(
    Suspect, st.sampled_from(SuspectKind), optional_ints, optional_ints, optional_ints,
    optional_ints,
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, texts)
evidence = st.dictionaries(texts, st.one_of(scalars, st.lists(scalars, max_size=3).map(tuple)))
anomalies = st.builds(
    Anomaly, st.sampled_from(AnomalyType), texts, float_fields,
    st.lists(suspects, max_size=3).map(tuple), evidence,
)
records = st.one_of(
    locations,
    suspects,
    anomalies,
    st.builds(FiveTuple, texts, texts, ints, ints, ints),
    st.builds(PathChoice, ints, ints, ints, ints, ints),
    st.builds(CommunicatorRecord, texts, ints, st.lists(locations, max_size=3).map(tuple)),
    st.builds(
        OpLaunchRecord, texts, ints, st.sampled_from(OpType), ints, locations, float_fields
    ),
    st.builds(
        OpRecord, texts, ints, st.sampled_from(OpType), st.sampled_from(Algorithm), texts,
        ints, ints, locations, float_fields, float_fields, float_fields,
    ),
    st.builds(
        MessageRecord, texts, ints, ints, ints, ints, ints, texts, texts, ints, ints, ints,
        float_fields, float_fields, float_fields,
    ),
    st.builds(
        SteeringAction, anomalies, st.lists(ints, max_size=2).map(tuple),
        st.lists(ints, max_size=2).map(tuple), float_fields, st.booleans(), ints,
        float_fields, st.lists(ints, max_size=2).map(list),
    ),
)
hashables = st.one_of(st.integers(), texts, st.tuples(st.integers(), texts))
leaves = st.one_of(
    scalars,
    records,
    st.builds(Labelled, texts),
    st.sampled_from(LinkHealthState),
    st.frozensets(hashables, max_size=4),
    st.sets(hashables, max_size=4),
    st.dictionaries(
        st.tuples(texts, st.integers()), st.sampled_from(LinkHealthState), max_size=3
    ).map(canonical_pairs),
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(records, min_size=2, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.builds(
            Entry, st.integers(), st.integers(), texts,
            st.dictionaries(texts, children, max_size=2),
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(texts, values, max_size=5))
def test_state_digest_equals_reference_json(state):
    assert state_digest(state) == reference_digest(state)


def message(index: int, complete=None) -> MessageRecord:
    complete = 10.0 + index / 7 if complete is None else complete
    return MessageRecord("c", index, 0, 1, 2, 1, "a", "b", 1, 1, 0, 1e9, 10.0, complete)


@pytest.mark.parametrize("length", [1024, 1025, 2048, 2500])
def test_streamed_windows_equal_reference_json(length):
    # Long windows are fed to the hash a chunk at a time; the chunk
    # boundaries, a NaN record past the first chunk and a mixed-type
    # window must not move a byte.
    window = tuple(message(index) for index in range(length))
    mixed = window[:-1] + (RankLocation(1, 2),)
    nan_late = window[:1030] + (message(1030, math.nan),) + window[1031:]
    state = {
        "windows": {"c": window, "mixed": mixed, "nan": nan_late},
        "pairs": [(rank, rank + 1) for rank in range(length)],
        "scalars": list(range(length)),
        "texts": [str(index) for index in range(length)],
        "empty": {"list": [], "tuple": (), "dict": {}},
    }
    assert state_digest(state) == reference_digest(state)


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
    epoch, count = s.recover(restored.append, lambda *row: replayed.append(row), **kwargs)
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
    assert replayed == [(seq, epoch, "op", {"i": seq}) for seq in (2, 3, 4)]
    assert count == 3
    assert new_epoch == s.epoch == epoch + 1


def test_recover_without_snapshot_replays_everything():
    s = store()
    epoch = s.open_epoch()
    for i in range(4):
        s.append("op", {"i": i}, epoch)
    new_epoch, count, restored, replayed = recover_calls(s)
    assert restored == []
    assert [row[0] for row in replayed] == [0, 1, 2, 3]
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
