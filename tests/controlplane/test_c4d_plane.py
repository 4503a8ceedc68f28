"""Tests for the journaled, fenced, recoverable C4D control plane."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import (
    CommunicatorRecord,
    MessageRecord,
    OpLaunchRecord,
    OpRecord,
)
from repro.controlplane import C4DControlPlane, JournalStore, LeaseTable
from repro.core.c4d.detectors import DetectorConfig
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry

RANKS = tuple(RankLocation(i, 0) for i in range(4))


def build_plane(store, leases, metrics, **kwargs):
    # Each incarnation gets a fresh topology: physical node state is not
    # journaled (isolations are never re-executed by replay).
    topo = ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=0)
    return C4DControlPlane(
        topo,
        backup_nodes=[14, 15],
        store=store,
        leases=leases,
        detector_config=DetectorConfig(hang_timeout=30.0),
        metrics=metrics,
        **kwargs,
    )


def feed_hang(plane, comm_id, now):
    """A communicator where rank 3 never launches: a NONCOMM_HANG."""
    plane.ingest_communicator(CommunicatorRecord(comm_id, 4, RANKS), now=now)
    for rank in range(3):
        plane.ingest_launch(
            OpLaunchRecord(comm_id, 0, OpType.ALLREDUCE, rank, RANKS[rank], now)
        )


@pytest.fixture
def env():
    metrics = MetricsRegistry()
    store = JournalStore(metrics=metrics)
    leases = LeaseTable(lease_seconds=60.0, metrics=metrics)
    for node in range(4):
        leases.register(node, 0.0)
    return store, leases, metrics


def test_evaluate_executes_and_journals(env):
    store, leases, metrics = env
    plane = build_plane(store, leases, metrics)
    feed_hang(plane, "c", 0.0)
    for node in range(4):
        leases.heartbeat(node, 20.0)  # keep coverage above the degraded gate
    fresh = plane.evaluate(60.0)
    assert len(fresh) == 1
    (action,) = plane.steering.executed_actions
    assert action.isolated_nodes == (3,)
    # Ingestions are journaled write-ahead, the pass with its outcome.
    kinds = [entry.kind for entry in store.entries]
    assert kinds == ["communicator", "launch", "launch", "launch", "evaluate"]
    evaluate_entry = store.entries[-1]
    assert evaluate_entry.payload["coverage"] == leases.coverage(60.0) == 1.0
    assert len(evaluate_entry.payload["actions"]) == 1


def test_restored_anomalies_keep_their_evidence_types(env):
    store, leases, metrics = env
    plane = build_plane(store, leases, metrics)
    # Rank 3 is silent in two communicators: the master fuses the two
    # hangs into one node-scoped anomaly whose ``comm_ids`` is a tuple.
    feed_hang(plane, "c0", 0.0)
    feed_hang(plane, "c1", 0.0)
    for node in range(4):
        leases.heartbeat(node, 20.0)
    plane.evaluate(60.0)
    (original,) = plane.master.anomalies
    assert original.evidence["comm_ids"] == ("c0", "c1")
    assert plane.snapshot()

    successor = build_plane(store, leases, metrics, active=False)
    assert successor.recover(now=70.0)["entries_replayed"] == 0
    (restored,) = successor.master.anomalies
    (action,) = successor.steering.actions
    # ``repr`` tells a tuple from a list; ``==`` on evidence and the
    # digest do not.
    assert repr(restored.evidence) == repr(original.evidence)
    assert repr(action.anomaly.evidence) == repr(original.evidence)


def test_cold_restart_replays_to_identical_digest(env):
    store, leases, metrics = env
    plane = build_plane(store, leases, metrics)
    feed_hang(plane, "c", 0.0)
    for node in range(4):
        leases.heartbeat(node, 20.0)
    plane.evaluate(60.0)
    assert plane.snapshot()
    feed_hang(plane, "c2", 61.0)
    plane.evaluate(70.0)
    digest = plane.state_digest()

    successor = build_plane(store, leases, metrics, active=False)
    info = successor.recover(now=80.0)
    assert info["digest"] == digest
    assert successor.state_digest() == digest
    # Replay re-derives bookkeeping only: no physical re-execution.
    assert successor.steering.executed_actions == []
    assert store.recoveries == 1
    assert store.failovers == 0  # a cold restart is not a failover
    # Snapshot bounded the replay to the post-snapshot suffix.
    snap = store.latest_snapshot()
    assert info["entries_replayed"] == len(store.entries_after(snap.seq))


def test_standby_promotion_counts_failover(env):
    store, leases, metrics = env
    plane = build_plane(store, leases, metrics)
    feed_hang(plane, "c", 0.0)
    standby = build_plane(store, leases, metrics, active=False, standby=True)
    standby.recover(now=10.0)
    assert store.failovers == 1
    assert store.recoveries == 1


def test_stale_plane_demotes_silently(env):
    store, leases, metrics = env
    plane = build_plane(store, leases, metrics)
    feed_hang(plane, "c", 0.0)
    successor = build_plane(store, leases, metrics, active=False)
    successor.recover(now=10.0)

    entries_before = len(store.entries)
    # The stale plane's writes are rejected without raising: ingestion
    # paths are called from agent callbacks that must not explode.
    plane.ingest_communicator(CommunicatorRecord("late", 4, RANKS), now=11.0)
    assert plane.evaluate(12.0) == []
    assert plane.snapshot() is False
    assert len(store.entries) == entries_before
    assert plane.active is False
    assert store.fence_rejections == 3


def test_degraded_mode_suppresses_under_blackout(env):
    store, leases, metrics = env
    plane = build_plane(store, leases, metrics)
    feed_hang(plane, "c", 100.0)
    # Only node 0 still beats; 3 of 4 leases expire -> coverage 0.25,
    # below the 0.6 gate.
    leases.heartbeat(0, 130.0)
    fresh = plane.evaluate(150.0)
    assert fresh == []
    assert plane.steering.executed_actions == []
    assert plane.master.degraded_anomalies
    assert plane.master.degraded_anomalies[-1].evidence["degraded"] is True


@pytest.mark.parametrize("kind", ["launch", "op", "message"])
def test_record_for_unregistered_communicator_is_refused_before_the_journal(env, kind):
    store, leases, metrics = env
    plane = build_plane(store, leases, metrics)
    feed_hang(plane, "c", 0.0)
    entries = len(store.entries)
    ghost = {
        "launch": OpLaunchRecord("ghost", 0, OpType.ALLREDUCE, 0, RANKS[0], 1.0),
        "op": OpRecord(
            "ghost", 0, OpType.ALLREDUCE, Algorithm.RING, "fp16", 1, 0, RANKS[0], 1.0, 1.0, 2.0
        ),
        "message": MessageRecord(
            "ghost", 0, 0, 0, 1, 0, "a", "b", 1, 1, 0, 1.0, 1.0, 2.0
        ),
    }[kind]
    with pytest.raises(KeyError, match="ghost"):
        getattr(plane, "ingest_" + kind)(ghost)
    # Nothing was journaled, so a recovery replays cleanly.
    assert len(store.entries) == entries
    digest = plane.state_digest()
    successor = build_plane(store, leases, metrics, active=False)
    assert successor.recover(now=10.0)["digest"] == digest


def test_straggler_for_dropped_communicator_is_journaled(env):
    store, leases, metrics = env
    plane = build_plane(store, leases, metrics)
    feed_hang(plane, "c", 0.0)
    plane.drop_communicator("c")
    late = OpLaunchRecord("c", 1, OpType.ALLREDUCE, 3, RANKS[3], 5.0)
    plane.ingest_launch(late)
    assert store.entries[-1].kind == "launch"
    assert store.entries[-1].payload == {"record": late}
    digest = plane.state_digest()
    successor = build_plane(store, leases, metrics, active=False)
    assert successor.recover(now=10.0)["digest"] == digest
