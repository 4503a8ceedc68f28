"""The per-record bookkeeping of the agent → plane → journal → collector path.

One fixed mixed sequence drives ``AgentPlane`` into a journaled
``C4DControlPlane`` with leases: live delivery into windows that evict,
a killed agent, a suspend/resume backfill, a lossy channel whose
in-flight records land on a fenced plane after a failover, and a
straggler after ``drop_communicator``.  Every counter and gauge series
of the path, and the journal's ``(seq, epoch, kind, record)`` list, are
pinned, so a faster path must keep the same books.
"""

import hashlib
from collections import Counter

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
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry
from repro.telemetry import unreliable
from repro.telemetry.agent import AgentPlane
from repro.telemetry.unreliable import ChannelConfig, UnreliableChannel

#: 64 ranks on 8 nodes: 65 steps overflow the default 4,096-record op
#: window, and 4 messages per rank per step the 16,384-record one.
BIG = CommunicatorRecord(
    "big", 64, tuple(RankLocation(rank // 8, rank % 8) for rank in range(64))
)
BIG_STEPS = 65
#: One rank per node, for the lifecycle phases.
SMALL = CommunicatorRecord("c", 8, tuple(RankLocation(node, 0) for node in range(8)))
#: Registered while the master is down.
LATE = CommunicatorRecord("late", 2, (RankLocation(0, 1), RankLocation(1, 1)))

#: The metric families the path keeps, all of them counters or gauges.
FAMILIES = (
    "controlplane_fence_rejections_total",
    "controlplane_heartbeats_total",
    "controlplane_journal_entries_total",
    "controlplane_journal_size",
    "telemetry_agent_backfilled_records_total",
    "telemetry_agent_buffered_records",
    "telemetry_agent_flushes_total",
    "telemetry_agent_records_dropped_total",
    "telemetry_agent_records_forwarded_total",
    "telemetry_records_ingested_total",
    "telemetry_records_lost_total",
    "telemetry_registered_communicators",
    "telemetry_straggler_records_total",
    "telemetry_window_evictions_total",
)


def step_records(comm: CommunicatorRecord, seq: int, t: float, messages: int = 1):
    """One allreduce of ``comm``: launches, ops, then ring messages."""
    launches, ops, sent = [], [], []
    for rank, loc in enumerate(comm.ranks):
        launch = t + 0.001 * rank
        launches.append(OpLaunchRecord(comm.comm_id, seq, OpType.ALLREDUCE, rank, loc, launch))
        ops.append(
            OpRecord(
                comm.comm_id, seq, OpType.ALLREDUCE, Algorithm.RING, "bf16", 1024, rank,
                loc, launch, t + 0.1, t + 1.0 + 0.01 * rank,
            )
        )
        peer = comm.ranks[(rank + 1) % comm.size]
        for index in range(messages):
            sent.append(
                MessageRecord(
                    comm.comm_id, seq, loc.node, loc.gpu, peer.node, peer.gpu,
                    f"10.{loc.gpu}.0.{loc.node}", f"10.{peer.gpu}.0.{peer.node}",
                    1000 + rank, 49152 + loc.gpu, index, 8e6, t + 0.1,
                    t + 0.2 + 0.001 * (rank + index),
                )
            )
    return launches, ops, sent


def deliver(agents: AgentPlane, records) -> None:
    launches, ops, messages = records
    for record in launches:
        agents.on_op_launch(record)
    for record in ops:
        agents.on_op(record)
    for record in messages:
        agents.on_message(record)


def series(registry: MetricsRegistry, prefixes: tuple[str, ...] = ()) -> dict:
    """``(family, labels) -> value`` for every series of :data:`FAMILIES`.

    Families whose names start with one of ``prefixes`` are added; a
    histogram's value is its ``(count, sum)``.
    """
    out = {}
    for family in registry.families():
        if family.name in FAMILIES or family.name.startswith(prefixes):
            for labels, child in family.series():
                if family.kind == "histogram":
                    value = (child.count, child.sum)
                else:
                    value = child.read() if family.kind == "gauge" else child.value
                out[(family.name, tuple(sorted(labels.items())))] = value
    return out


def journal_digest(rows) -> str:
    """SHA-256 of the ``(seq, epoch, kind, record)`` list's ``repr``."""
    records = [
        (seq, epoch, kind, payload["record"] if kind == "communicator" else payload)
        for seq, epoch, kind, payload in rows
    ]
    return hashlib.sha256(repr(records).encode()).hexdigest()


def run_sequence():
    # The lossy channel retries once, so records in flight at the
    # failover are still there to be refused by the fenced primary.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(unreliable, "MAX_RETRIES", 1)
        return _run_sequence()


def _run_sequence():
    registry = MetricsRegistry()
    net = FlowNetwork(metrics=registry)
    store = JournalStore(metrics=registry)
    leases = LeaseTable(lease_seconds=60.0, metrics=registry)

    def plane(active: bool) -> C4DControlPlane:
        topology = ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=0)
        return C4DControlPlane(
            topology, backup_nodes=[14, 15], store=store, leases=leases,
            active=active, metrics=registry,
        )

    primary = plane(active=True)
    agents = AgentPlane(primary, clock=lambda: net.now, leases=leases, metrics=registry)
    channel = UnreliableChannel(net, ChannelConfig(drop_rate=0.3, duplicate_rate=0.3), seed=3)
    lossy = AgentPlane(
        primary, clock=lambda: net.now, channel=channel, leases=leases, metrics=registry
    )

    # Live delivery until every window of ``big`` evicts.
    agents.on_communicator(BIG)
    for seq in range(BIG_STEPS):
        net.run(until=10.0 * (seq + 1))
        deliver(agents, step_records(BIG, seq, net.now, messages=4))
    net.run(until=700.0)
    agents.on_communicator(SMALL)
    deliver(agents, step_records(SMALL, 0, net.now))

    # A dead agent: node 3's records vanish.
    agents.kill_agent(3)
    net.run(until=710.0)
    deliver(agents, step_records(SMALL, 1, net.now))

    # Master down: registrations and records wait; node 5 dies with a
    # full buffer; node 3 comes back before the backfill.
    agents.suspend()
    net.run(until=720.0)
    agents.on_communicator(LATE)
    deliver(agents, step_records(SMALL, 2, net.now))
    deliver(agents, step_records(LATE, 0, net.now))
    agents.kill_agent(5)
    agents.revive_agent(3, 725.0)
    net.run(until=730.0)
    agents.resume(net.now)

    # A lossy channel; a failover while records are still in flight, so
    # the late ones land on the fenced primary.
    net.run(until=740.0)
    deliver(lossy, step_records(SMALL, 3, net.now))
    net.run(until=740.8)
    successor = plane(active=False)
    successor.recover(now=net.now)
    agents.retarget(successor)
    lossy.retarget(successor)
    net.run(until=760.0)
    deliver(lossy, step_records(SMALL, 4, net.now))
    net.run(until=780.0)

    # A straggler for a dropped communicator is journaled and discarded.
    successor.drop_communicator("c")
    deliver(agents, step_records(SMALL, 5, net.now))
    return registry, store, successor, channel


def test_record_path_keeps_its_books():
    registry, store, successor, channel = run_sequence()
    assert channel.stats() == {
        "sent": 48, "delivered": 44, "dropped_attempts": 18, "duplicated": 13,
        "abandoned": 4,
    }
    # Records in flight at the failover reach the fenced primary, which
    # journals nothing and counts one rejection and one lost record each.
    assert store.fence_rejections == 21
    kinds = Counter(zip(store.epochs, store.kinds))
    assert kinds == {
        (1, "communicator"): 3, (1, "launch"): 4187, (1, "op"): 4187, (1, "message"): 16665,
        (2, "launch"): 15, (2, "op"): 17, (2, "message"): 15, (2, "drop"): 1,
    }
    rows = list(store.entries_after(0))
    assert [seq for seq, _epoch, _kind, _payload in rows] == list(range(25090))
    (drop,) = [row for row in rows if row[2] == "drop"]
    assert (drop[0], drop[3]) == (25068, {"comm_id": "c"})
    records = [row for row in rows if row[2] != "drop"]
    assert journal_digest(records) == (
        "7271f074d2f89cd23d619f51c72b83f6b645b83e7970b27d927d2d46fcf217bb"
    )
    # Each record is counted once: the successor's replay of the journal
    # moves no ingest or eviction counter.  Journaled minus ingested is
    # the 21 stragglers, 7 of each kind.
    assert series(registry) == {
        ("controlplane_fence_rejections_total", ()): 21.0,
        ("controlplane_heartbeats_total", ()): 25082.0,
        ("controlplane_journal_entries_total", (("kind", "communicator"),)): 3.0,
        ("controlplane_journal_entries_total", (("kind", "drop"),)): 1.0,
        ("controlplane_journal_entries_total", (("kind", "launch"),)): 4202.0,
        ("controlplane_journal_entries_total", (("kind", "message"),)): 16680.0,
        ("controlplane_journal_entries_total", (("kind", "op"),)): 4204.0,
        ("controlplane_journal_size", ()): 25090.0,
        ("telemetry_agent_backfilled_records_total", ()): 25.0,
        ("telemetry_agent_buffered_records", ()): 0.0,
        ("telemetry_agent_flushes_total", ()): 1.0,
        ("telemetry_agent_records_dropped_total", ()): 12.0,
        ("telemetry_agent_records_forwarded_total", ()): 25098.0,
        ("telemetry_records_ingested_total", (("kind", "communicator"),)): 3.0,
        ("telemetry_records_ingested_total", (("kind", "launch"),)): 4195.0,
        ("telemetry_records_ingested_total", (("kind", "message"),)): 16673.0,
        ("telemetry_records_ingested_total", (("kind", "op"),)): 4197.0,
        ("telemetry_records_lost_total", (("reason", "fenced"),)): 21.0,
        ("telemetry_registered_communicators", ()): 2.0,
        ("telemetry_straggler_records_total", ()): 21.0,
        ("telemetry_window_evictions_total", (("kind", "launch"),)): 64.0,
        ("telemetry_window_evictions_total", (("kind", "message"),)): 256.0,
        ("telemetry_window_evictions_total", (("kind", "op"),)): 64.0,
    }

    # Compaction empties the journal, and its size gauge follows.
    assert successor.snapshot()
    assert store.compact() == 25090
    assert series(registry)[("controlplane_journal_size", ())] == 0.0


def test_replay_counts_no_record_twice():
    registry, store, successor, _channel = run_sequence()
    successor.evaluate(800.0)
    replayed = registry.counter("controlplane_replayed_entries_total")
    before, replayed_before = series(registry, ("c4d_",)), replayed.value
    assert before[("c4d_evaluations_total", ())] == 1.0
    info = successor.recover(now=800.0)
    assert info["entries_replayed"] == len(store) > 0
    assert replayed.value == replayed_before + info["entries_replayed"]
    # The replay re-ingests every journaled record, re-discards the
    # stragglers and re-runs the evaluation, without touching the
    # collector's record counters or the master's and detectors' series.
    assert series(registry, ("c4d_",)) == before
