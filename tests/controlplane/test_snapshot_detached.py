"""A snapshot is detached from the live master that took it.

The journal store keeps snapshot states as given, without a copy, so
every ``snapshot_state`` must return a value no later mutation of the
live master reaches, and every ``restore_state`` must build fresh
containers from it.  Each test mutates a master after a snapshot (or
after a recovery) and checks that recovering from the store still
reproduces the digest recorded at that point, and that a second
recovery from the same snapshot matches the first.
"""

import copy

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
from repro.collective.selectors import PathRequest
from repro.controlplane import (
    C4DControlPlane,
    JournalStore,
    LeaseTable,
    ResilientC4PMaster,
)
from repro.core.c4d.detectors import DetectorConfig
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry

RANKS = tuple(RankLocation(node, 0) for node in range(4))


def store_copy(store: JournalStore) -> JournalStore:
    """The store as a crash at this instant leaves it."""
    clone = copy.copy(store)
    clone.entries = list(store.entries)
    clone.snapshots = list(store.snapshots)
    return clone


# ----------------------------------------------------------------------
# C4D control plane
# ----------------------------------------------------------------------
@pytest.fixture
def env():
    metrics = MetricsRegistry()
    leases = LeaseTable(lease_seconds=60.0, metrics=metrics)
    for node in range(4):
        leases.register(node, 0.0)
    return JournalStore(metrics=metrics), leases, metrics


def c4d_plane(store, leases, metrics, executed, **kwargs):
    return C4DControlPlane(
        ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=0),
        backup_nodes=[14, 15],
        store=store,
        leases=leases,
        detector_config=DetectorConfig(hang_timeout=30.0),
        action_listener=lambda action, coverage: executed.append(action),
        metrics=metrics,
        **kwargs,
    )


def feed_seqs(plane, comm_id, seqs) -> None:
    """Every rank's launch, op and one message for each seq."""
    for seq in seqs:
        start = float(seq)
        for rank, loc in enumerate(RANKS):
            plane.ingest_launch(OpLaunchRecord(comm_id, seq, OpType.ALLREDUCE, rank, loc, start))
            plane.ingest_op(
                OpRecord(
                    comm_id, seq, OpType.ALLREDUCE, Algorithm.RING, "fp16", 1024, rank,
                    loc, start, start + 0.1, start + 0.5,
                )
            )
            peer = (rank + 1) % 4
            plane.ingest_message(
                MessageRecord(
                    comm_id, seq, rank, 0, peer, 0, "a", "b", 7, 49152, 0, 1e6,
                    start, start + 0.4,
                )
            )


def feed_hang(plane, comm_id, silent_rank, now) -> None:
    """A communicator where ``silent_rank`` never launches seq 0."""
    plane.ingest_communicator(CommunicatorRecord(comm_id, 4, RANKS), now=now)
    for rank, loc in enumerate(RANKS):
        if rank != silent_rank:
            plane.ingest_launch(OpLaunchRecord(comm_id, 0, OpType.ALLREDUCE, rank, loc, now))


def evaluate_with_action(plane, leases, executed, now) -> None:
    for node in range(4):
        leases.heartbeat(node, now - 10.0)
    before = len(executed)
    plane.evaluate(now)
    assert len(executed) == before + 1


def snapshotted_plane(env, executed):
    """A plane that ingested every record kind, acted once and snapshotted."""
    store, leases, metrics = env
    plane = c4d_plane(store, leases, metrics, executed)
    plane.ingest_communicator(CommunicatorRecord("c", 4, RANKS), now=0.0)
    feed_seqs(plane, "c", range(4))
    feed_hang(plane, "h1", 3, now=10.0)
    evaluate_with_action(plane, leases, executed, now=60.0)
    assert plane.snapshot()
    return plane


def test_c4d_snapshot_survives_later_mutation_of_the_live_plane(env):
    store, leases, metrics = env
    executed = []
    plane = snapshotted_plane(env, executed)
    digest = plane.state_digest()
    at_snapshot = store_copy(store)

    # Evict every record the snapshot saw from all three windows: one
    # message, one op and one launch per rank and seq.
    collector = plane.collector
    feed_seqs(plane, "c", range(4, 4 + collector._message_window // len(RANKS)))
    assert min(op.seq for op in collector.ops("c")) >= 4
    assert min(message.seq for message in collector.messages("c")) >= 4
    assert not any(collector.launches_for_seq("c", seq) for seq in range(4))
    plane.drop_communicator("c")
    feed_hang(plane, "h2", 2, now=70.0)
    evaluate_with_action(plane, leases, executed, now=120.0)
    assert plane.state_digest() != digest

    successor = c4d_plane(at_snapshot, leases, metrics, [], active=False)
    info = successor.recover(now=130.0)
    assert info["entries_replayed"] == 0
    assert info["digest"] == digest


def test_c4d_two_recoveries_from_one_store_agree(env):
    store, leases, metrics = env
    executed = []
    snapshotted_plane(env, executed)
    pristine = store_copy(store)

    first = c4d_plane(store, leases, metrics, executed, active=False)
    digest = first.recover(now=65.0)["digest"]
    feed_seqs(first, "c", range(4, 8))
    first.drop_communicator("c")
    feed_hang(first, "h2", 2, now=70.0)
    evaluate_with_action(first, leases, executed, now=120.0)
    assert first.state_digest() != digest

    second = c4d_plane(pristine, leases, metrics, [], active=False)
    assert second.recover(now=130.0)["digest"] == digest


def test_c4d_snapshot_survives_a_degraded_evaluation(env):
    store, leases, metrics = env
    executed = []
    plane = snapshotted_plane(env, executed)
    digest = plane.state_digest()
    at_snapshot = store_copy(store)

    # Every lease has lapsed by t=200, so the pass records the new hang
    # with its evidence annotated in place and acts on nothing.
    feed_hang(plane, "h2", 2, now=70.0)
    plane.evaluate(200.0)
    (degraded,) = plane.master.degraded_anomalies
    assert degraded.evidence["degraded"] is True
    assert len(executed) == 1
    assert plane.state_digest() != digest

    successor = c4d_plane(at_snapshot, leases, metrics, [], active=False)
    info = successor.recover(now=210.0)
    assert info["entries_replayed"] == 0
    assert info["digest"] == digest


# ----------------------------------------------------------------------
# C4P master
# ----------------------------------------------------------------------
def c4p_master(store=None, **kwargs):
    topology = ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=1)
    return ResilientC4PMaster(topology, store=store, metrics=MetricsRegistry(), **kwargs)


def request(index, src_node, dst_node):
    return PathRequest(f"comm{index}", "job0", src_node, 0, dst_node, 0, num_qps=4)


def test_c4p_snapshot_survives_later_mutation_of_the_live_master():
    master = c4p_master()
    allocs = master.allocate(request(0, 0, 4))
    master.notify_link_failure(allocs[0].path[0], now=10.0)
    assert master.snapshot()
    digest = master.state_digest()
    at_snapshot = store_copy(master.store)

    more = master.allocate(request(1, 1, 5))
    master.notify_link_failure(more[0].path[-1], now=20.0)
    master.release(request(0, 0, 4), allocs)
    assert master.state_digest() != digest

    successor = c4p_master(store=at_snapshot, active=False, refresh_on_init=False)
    info = successor.recover(now=30.0)
    assert info["entries_replayed"] == 0
    assert info["digest"] == digest


def test_c4p_two_recoveries_from_one_store_agree():
    master = c4p_master()
    allocs = master.allocate(request(0, 0, 4))
    master.notify_link_failure(allocs[0].path[0], now=10.0)
    master.snapshot()
    pristine = store_copy(master.store)

    first = c4p_master(store=master.store, active=False, refresh_on_init=False)
    digest = first.recover(now=15.0)["digest"]
    more = first.allocate(request(1, 1, 5))
    first.notify_link_failure(more[0].path[-1], now=20.0)
    first.notify_link_failure(allocs[0].path[0], now=25.0)  # fails again
    first.release(request(0, 0, 4), allocs)
    assert first.state_digest() != digest

    second = c4p_master(store=pristine, active=False, refresh_on_init=False)
    assert second.recover(now=30.0)["digest"] == digest


def test_c4p_snapshot_survives_in_place_reassignment_of_an_allocation():
    master = c4p_master()
    allocs = master.allocate(request(0, 0, 4))
    assert master.snapshot()
    digest = master.state_digest()
    at_snapshot = store_copy(master.store)

    # The load balancer sets a live allocation's weight in place, and a
    # drain reassigns the route fields of the allocation it migrates.
    allocs[0].weight = 0.25
    report = master.notify_link_failure(allocs[1].path[2], now=10.0)
    assert allocs[1] in report.migrated
    assert master.state_digest() != digest

    successor = c4p_master(store=at_snapshot, active=False, refresh_on_init=False)
    info = successor.recover(now=20.0)
    assert info["entries_replayed"] == 0
    assert info["digest"] == digest


def test_c4p_snapshot_survives_a_repeated_link_failure():
    master = c4p_master()
    allocs = master.allocate(request(0, 0, 4))
    link = allocs[0].path[2]
    master.notify_link_failure(link, now=10.0)
    assert master.snapshot()
    digest = master.state_digest()
    at_snapshot = store_copy(master.store)

    master.health.record_failure(link, now=20.0)
    assert master.health.failures_in_window(link, now=20.0) == 2
    assert master.state_digest() != digest

    successor = c4p_master(store=at_snapshot, active=False, refresh_on_init=False)
    info = successor.recover(now=30.0)
    assert info["entries_replayed"] == 0
    assert info["digest"] == digest
