"""Per-record ingest ladder: journaled ingest through the agents at 64 and 1,024 ranks.

One communicator of ``nodes x 8`` ranks runs one allreduce per 10 s step;
every step delivers each rank's launch and op record and one ring
message per worker, ``(node, nic) -> (node + 1, nic)``.  The records
cross the whole per-record path: ``AgentPlane`` (a lease heartbeat per
delivery) into a journaled ``C4DControlPlane``, which appends each one
write-ahead to its ``JournalStore`` and hands it to its
``CentralCollector``.  At 1,024 ranks the op and launch windows evict.

Before it is timed, each size checks the path against a bare
``CentralCollector`` fed the same records directly: both collectors must
reach the same ``state_digest``, and the journal must hold one entry per
record plus the registration.
"""

import random

import pytest

from repro.cluster.specs import ClusterSpec
from repro.cluster.topology import ClusterTopology
from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import (
    CommunicatorRecord,
    MessageRecord,
    OpLaunchRecord,
    OpRecord,
)
from repro.controlplane import C4DControlPlane, JournalStore, LeaseTable, state_digest
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.agent import AgentPlane
from repro.telemetry.collector import CentralCollector

GPUS = 8
NODES = (8, 128)  # 64 and 1,024 ranks
STEPS = 8
STEP_SECONDS = 10.0


def generate(nodes: int, seed: int = 0):
    """``(communicator, [(now, launches, ops, messages)] per step)``."""
    rng = random.Random(seed)
    ranks = nodes * GPUS
    locations = tuple(RankLocation(rank // GPUS, rank % GPUS) for rank in range(ranks))
    communicator = CommunicatorRecord("c", ranks, locations)
    steps = []
    for seq in range(STEPS):
        now = STEP_SECONDS * (seq + 1)
        launch = [now + rng.uniform(0.0, 0.02) for _ in range(ranks)]
        start = max(launch)
        launches = [
            OpLaunchRecord("c", seq, OpType.ALLREDUCE, rank, locations[rank], launch[rank])
            for rank in range(ranks)
        ]
        ops = [
            OpRecord(
                "c", seq, OpType.ALLREDUCE, Algorithm.RING, "bf16", 2**28, rank,
                locations[rank], launch[rank], start, start + 1.0,
            )
            for rank in range(ranks)
        ]
        messages = [
            MessageRecord(
                "c", seq, node, nic, (node + 1) % nodes, nic, "a", "b", 1, 1, 0,
                1e9, start, start + 0.02 * rng.uniform(0.95, 1.05),
            )
            for node in range(nodes)
            for nic in range(GPUS)
        ]
        steps.append((now, launches, ops, messages))
    return communicator, steps


def records(steps) -> int:
    return sum(len(launches) + len(ops) + len(messages) for _now, launches, ops, messages in steps)


class Clock:
    now = 0.0


def journaled_path(nodes: int):
    """A fresh agent plane feeding a journaled plane, and its clock."""
    registry = MetricsRegistry()
    spec = ClusterSpec(num_nodes=nodes + 2)
    plane = C4DControlPlane(
        ClusterTopology(spec, FlowNetwork(metrics=registry), ecmp_seed=0),
        backup_nodes=[nodes, nodes + 1],
        store=JournalStore(metrics=registry),
        leases=LeaseTable(metrics=registry),
        metrics=registry,
    )
    clock = Clock()
    agents = AgentPlane(plane, clock=lambda: clock.now, leases=plane.leases, metrics=registry)
    return agents, clock


def deliver(agents: AgentPlane, clock: Clock, communicator, steps) -> C4DControlPlane:
    """Every record through the agents; returns the plane they feed."""
    agents.on_communicator(communicator)
    for now, launches, ops, messages in steps:
        clock.now = now
        for record in launches:
            agents.on_op_launch(record)
        for record in ops:
            agents.on_op(record)
        for record in messages:
            agents.on_message(record)
    return agents.collector


@pytest.mark.parametrize("nodes", NODES)
def test_journaled_ingest(benchmark, nodes):
    communicator, steps = generate(nodes)
    bare = CentralCollector(metrics=MetricsRegistry())
    bare.ingest_communicator(communicator)
    for _now, launches, ops, messages in steps:
        for record in launches:
            bare.ingest_launch(record)
        for record in ops:
            bare.ingest_op(record)
        for record in messages:
            bare.ingest_message(record)

    agents, clock = journaled_path(nodes)
    plane = deliver(agents, clock, communicator, steps)
    assert state_digest(plane.collector.snapshot_state()) == state_digest(bare.snapshot_state())
    assert len(plane.store) == 1 + records(steps)

    benchmark.group = f"Journaled ingest through the agents, {nodes * GPUS} ranks"
    benchmark.extra_info["records"] = records(steps)
    benchmark.pedantic(
        deliver,
        setup=lambda: ((*journaled_path(nodes), communicator, steps), {}),
        rounds=3,
        iterations=1,
    )
