"""Crash-anywhere recovery: every journal position recovers to the live digest.

Each test records, after every mutating call (journal append, snapshot
or compaction), a frozen copy of the journal store and the live
``state_digest()``.  A fresh incarnation then recovers from each copy —
the store exactly as a crash right after that call would have left it —
and must reproduce the recorded digest without re-executing any action.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.cluster.specs import TESTBED_16_NODES, ClusterSpec
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
from repro.core.c4d.events import AnomalyType
from repro.core.c4p.registry import PathPoolExhausted
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry


def frozen_copy(store: JournalStore) -> JournalStore:
    """The store as a crash at this instant leaves it."""
    clone = copy.copy(store)
    clone.entries = list(store.entries)
    clone.snapshots = list(store.snapshots)
    return clone


class CrashPoints:
    """Crash points recorded after each mutating call of a live master."""

    def __init__(self, store: JournalStore, digest) -> None:
        self.store = store
        self.digest = digest
        self.points: list[tuple[str, JournalStore, str]] = []

    def after(self, label: str) -> None:
        self.points.append((label, frozen_copy(self.store), self.digest()))

    def call(self, fn, *args, **kwargs) -> None:
        fn(*args, **kwargs)
        self.after(fn.__name__)

    def labels(self) -> list[str]:
        return [label for label, _store, _digest in self.points]


# ----------------------------------------------------------------------
# C4D control plane: a hang, a comm-slow episode, snapshots, compaction
# ----------------------------------------------------------------------
RANKS = tuple(RankLocation(node, 0) for node in range(4))
DETECTOR_CONFIG = DetectorConfig(hang_timeout=30.0)


def c4d_plane(store, leases, metrics, executed, **kwargs):
    return C4DControlPlane(
        ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=0),
        backup_nodes=[14, 15],
        store=store,
        leases=leases,
        detector_config=DETECTOR_CONFIG,
        action_listener=lambda action, coverage: executed.append(action),
        metrics=metrics,
        **kwargs,
    )


def run_c4d_history(plane, leases, crash: CrashPoints) -> None:
    """Slow NIC on node 1 of ``slow``; rank 3 of ``hang`` never launches."""
    crash.call(plane.ingest_communicator, CommunicatorRecord("slow", 4, RANKS), now=0.0)
    for seq in range(3):
        start = 10.0 * seq
        for rank, loc in enumerate(RANKS):
            launch = OpLaunchRecord("slow", seq, OpType.ALLREDUCE, rank, loc, start)
            crash.call(plane.ingest_launch, launch)
        for node in range(4):
            peer = (node + 1) % 4
            duration = 4.0 if node == 1 else 1.0
            message = MessageRecord(
                "slow", seq, node, 0, peer, 0, f"10.0.{node}.1", f"10.0.{peer}.1",
                7, 49152 + node, 0, 1e6, start, start + duration,
            )
            crash.call(plane.ingest_message, message)
        for rank, loc in enumerate(RANKS):
            op = OpRecord(
                "slow", seq, OpType.ALLREDUCE, Algorithm.RING, "fp16", 1024, rank,
                loc, start, start + 0.1, start + 4.1,
            )
            crash.call(plane.ingest_op, op)
    crash.call(plane.snapshot)
    crash.call(plane.ingest_communicator, CommunicatorRecord("hang", 4, RANKS), now=25.0)
    for rank in range(3):
        launch = OpLaunchRecord("hang", 0, OpType.ALLREDUCE, rank, RANKS[rank], 25.0)
        crash.call(plane.ingest_launch, launch)
    for node in range(4):
        leases.heartbeat(node, 40.0)
    crash.call(plane.evaluate, 60.0)
    crash.call(plane.snapshot)
    crash.call(plane.store.compact)
    crash.call(plane.drop_communicator, "hang")
    crash.call(plane.evaluate, 70.0)


def test_c4d_plane_recovers_at_every_journal_position():
    metrics = MetricsRegistry()
    store = JournalStore(metrics=metrics)
    leases = LeaseTable(lease_seconds=60.0, metrics=metrics)
    for node in range(4):
        leases.register(node, 0.0)
    executed = []
    plane = c4d_plane(store, leases, metrics, executed)
    crash = CrashPoints(store, plane.state_digest)
    run_c4d_history(plane, leases, crash)

    # The history covers what the recovery path must re-derive.
    kinds = {action.anomaly.anomaly_type for action in executed}
    assert {AnomalyType.NONCOMM_HANG, AnomalyType.COMM_SLOW} <= kinds
    assert crash.labels().count("snapshot") == 2
    assert "compact" in crash.labels()
    assert len(crash.points) == store._next_seq + 3

    for label, crashed_store, digest in crash.points:
        relaunched = []
        successor = c4d_plane(crashed_store, leases, metrics, relaunched, active=False)
        info = successor.recover(now=80.0)
        assert info["digest"] == digest, f"digest mismatch after {label}"
        assert relaunched == [], f"action re-executed after {label}"


# ----------------------------------------------------------------------
# C4P master: hypothesis-generated mutation sequences
# ----------------------------------------------------------------------
SMALL_SPEC = ClusterSpec(num_nodes=4, spines_per_rail=2, uplink_ports_per_spine=2)


def c4p_master(store=None, **kwargs):
    topology = ClusterTopology(SMALL_SPEC, FlowNetwork(), ecmp_seed=3)
    return ResilientC4PMaster(topology, store=store, metrics=MetricsRegistry(), **kwargs)


OPS = st.one_of(
    st.tuples(
        st.just("allocate"),
        st.integers(0, 3),  # src node
        st.integers(0, 3),  # dst node offset
        st.integers(0, 1),  # nic (rail)
        st.integers(1, 4),  # num_qps
    ),
    st.tuples(st.just("release"), st.integers(0, 1_000)),
    st.tuples(st.just("link_failure"), st.integers(0, 1_000), st.booleans()),
    st.tuples(st.just("maintenance"), st.integers(0, 1_000)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("compact")),
)


def apply_c4p_op(master, op, now, live) -> str:
    """Run one generated op; returns the label of its crash point."""
    kind = op[0]
    if kind == "allocate":
        _, src, offset, nic, num_qps = op
        dst = (src + 1 + offset % 3) % 4
        request = PathRequest(f"c{len(live)}", "job", src, nic, dst, nic, num_qps)
        try:
            live.append((request, master.allocate(request)))
        except PathPoolExhausted:
            pass
    elif kind == "release":
        if not live:
            return "noop"
        request, allocs = live.pop(op[1] % len(live))
        master.release(request, allocs)
    elif kind == "link_failure":
        links = sorted({link for _req, allocs in live for a in allocs for link in a.path})
        if not links:
            return "noop"
        master.notify_link_failure(links[op[1] % len(links)], now=now, drain=op[2])
    elif kind == "maintenance":
        # Probe outcomes come from the live fabric: fail one fabric link
        # physically now and then so maintenance sees a silent failure.
        links = sorted(master.registry.link_load)
        if links and op[1] % 3 == 0:
            master.topology.network.link(links[op[1] % len(links)]).fail()
        master.maintenance(now=now)
    elif kind == "snapshot":
        master.snapshot()
    else:
        master.store.compact()
    return kind


@given(st.lists(OPS, min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_c4p_master_recovers_at_every_journal_position(ops):
    master = c4p_master()
    crash = CrashPoints(master.store, master.state_digest)
    live = []
    # Two connections up front, so releases, failures and drains have
    # something to act on from the first generated op.
    for op in (("allocate", 0, 1, 0, 4), ("allocate", 1, 1, 0, 2)):
        crash.after(apply_c4p_op(master, op, now=0.0, live=live))
    for step, op in enumerate(ops):
        label = apply_c4p_op(master, op, now=10.0 * (step + 1), live=live)
        if label != "noop":
            crash.after(label)

    for label, crashed_store, digest in crash.points:
        migrations = []
        successor = c4p_master(store=crashed_store, active=False, refresh_on_init=False)
        successor.migration_listener = lambda request, alloc: migrations.append(alloc)
        info = successor.recover(now=1e4)
        assert info["digest"] == digest, f"digest mismatch after {label}"
        assert migrations == [], f"migration re-executed after {label}"
