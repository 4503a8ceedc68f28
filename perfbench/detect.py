"""The ``detect_1k`` closed loop and its seeded record generator.

The generator plays one 1,024-rank communicator (128 nodes x 8 GPUs)
running one allreduce per 10 s simulated step.  It injects two faults
and keeps the ground truth to itself:

* one persistent straggler rank that launches every collective 2 s
  late (the non-communication-slow syndrome);
* one NIC whose messages, in and out, take 4x as long (the
  communication-slow syndrome).

Message records follow the rail rings of a multi-rail allreduce: worker
``(node, nic)`` sends to ``(node + 1, nic)``.  The program only ever sees
the records.  They flow ``AgentPlane`` -> ``C4DControlPlane`` (which
journals each one write-ahead) -> ``CentralCollector``; the loop feeds a
step only after the previous calls returned, evaluates once per step and
snapshots periodically.  At the end a fresh plane recovers from the
shared journal store and must reach the same state digest.

Records are generated before the clock starts, so generation counts in
neither set-up nor run time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

STEP_SECONDS = 10.0
#: Evaluation instant within a step: after the collective completed.
EVAL_OFFSET = 5.0
STRAGGLER_LATENESS = 2.0
NIC_SLOWDOWN = 4.0
LAUNCH_JITTER = 0.02
MESSAGE_BITS = 8.0 * 64 * 2**20
LINK_BITS_PER_S = 200e9
COMM_ID = "detect#1"


@dataclass(frozen=True)
class DetectSize:
    """Scale of one closed-loop run."""

    nodes: int
    gpus: int
    steps: int
    snapshot_every: int
    #: Fresh-plane recoveries at the end (their median is reported).
    recoveries: int

    @property
    def ranks(self) -> int:
        return self.nodes * self.gpus


SIZES = {
    # At least 100 evaluation passes even in a one-repetition run.  The
    # replayed suffix (after the last snapshot) holds no verdict: replaying
    # a verdict whose steering dedup window has expired (t=925 here) does
    # not reproduce the pre-crash digest today.
    "full": DetectSize(nodes=128, gpus=8, steps=110, snapshot_every=20, recoveries=3),
    "tiny": DetectSize(nodes=8, gpus=8, steps=12, snapshot_every=4, recoveries=1),
}


@dataclass(frozen=True)
class Fault:
    """Injected ground truth: one syndrome localized to one worker."""

    syndrome: str
    node: int
    device: int

    @property
    def suspect(self) -> str:
        return f"node{self.node}/dev{self.device}"


@dataclass
class DetectInput:
    """Pre-generated records plus the ground truth behind them."""

    size: DetectSize
    communicator: object
    #: Per step: (step time, launch records, op records, message records).
    steps: list
    faults: tuple[Fault, ...]

    @property
    def records(self) -> int:
        return sum(len(l) + len(o) + len(m) for _t, l, o, m in self.steps)


def generate(seed: int, size: DetectSize) -> DetectInput:
    """Seeded records for one communicator with two injected faults."""
    from repro.collective.algorithms import Algorithm, OpType
    from repro.collective.communicator import RankLocation
    from repro.collective.monitoring import (
        CommunicatorRecord,
        MessageRecord,
        OpLaunchRecord,
        OpRecord,
    )

    rng = np.random.default_rng(seed)
    nodes, gpus, ranks = size.nodes, size.gpus, size.ranks
    straggler = int(rng.integers(ranks))
    nic_node = int(rng.integers(nodes - 1))
    if nic_node >= straggler // gpus:
        nic_node += 1
    nic = int(rng.integers(gpus))
    faults = (
        Fault("non_communication_slow", straggler // gpus, straggler % gpus),
        Fault("communication_slow", nic_node, nic),
    )
    locations = [RankLocation(rank // gpus, rank % gpus) for rank in range(ranks)]
    communicator = CommunicatorRecord(COMM_ID, ranks, tuple(locations))
    ips = [[f"10.{g}.{n // 256}.{n % 256}" for g in range(gpus)] for n in range(nodes)]
    base = MESSAGE_BITS / LINK_BITS_PER_S
    steps = []
    for step in range(size.steps):
        now = STEP_SECONDS * (step + 1)
        launch = now + rng.uniform(0.0, LAUNCH_JITTER, ranks)
        launch[straggler] += STRAGGLER_LATENESS
        launch = launch.tolist()
        start = max(launch)
        # Ring (rank order = node-major): worker (n, g) -> (n + 1, g).
        duration = base * rng.uniform(0.95, 1.05, (nodes, gpus))
        duration[nic_node, nic] *= NIC_SLOWDOWN
        duration[(nic_node - 1) % nodes, nic] *= NIC_SLOWDOWN
        duration = duration.tolist()
        end = start + 2.0 * max(max(row) for row in duration)
        launches = [
            OpLaunchRecord(COMM_ID, step, OpType.ALLREDUCE, rank, locations[rank], launch[rank])
            for rank in range(ranks)
        ]
        ops = [
            OpRecord(
                COMM_ID,
                step,
                OpType.ALLREDUCE,
                Algorithm.RING,
                "bf16",
                2**28,
                rank,
                locations[rank],
                launch[rank],
                start,
                end,
            )
            for rank in range(ranks)
        ]
        messages = [
            MessageRecord(
                COMM_ID,
                step,
                n,
                g,
                (n + 1) % nodes,
                g,
                ips[n][g],
                ips[(n + 1) % nodes][g],
                1000 + n * gpus + g,
                49152 + g,
                0,
                MESSAGE_BITS,
                start,
                start + duration[n][g],
            )
            for n in range(nodes)
            for g in range(gpus)
        ]
        steps.append((now, launches, ops, messages))
    return DetectInput(size=size, communicator=communicator, steps=steps, faults=faults)


class DetectLoop:
    """The closed loop's program side: built during set-up, then run."""

    def __init__(self, size: DetectSize, registry) -> None:
        from repro.cluster.specs import ClusterSpec
        from repro.cluster.topology import ClusterTopology
        from repro.controlplane import C4DControlPlane, JournalStore, LeaseTable
        from repro.netsim.network import FlowNetwork
        from repro.telemetry.agent import AgentPlane

        self.size = size
        self.registry = registry
        spare = max(2, size.nodes // 16)
        spec = ClusterSpec(num_nodes=size.nodes + spare)
        self.topology = ClusterTopology(spec, FlowNetwork(metrics=registry), ecmp_seed=0)
        self.backups = list(range(size.nodes, spec.num_nodes))
        self.store = JournalStore(metrics=registry)
        self.leases = LeaseTable(metrics=registry)
        self._plane_class = C4DControlPlane
        self.plane = self._new_plane(active=True)
        self.now = 0.0
        self.agents = AgentPlane(
            self.plane, clock=lambda: self.now, leases=self.leases, metrics=registry
        )

    def _new_plane(self, active: bool):
        return self._plane_class(
            self.topology,
            backup_nodes=self.backups,
            store=self.store,
            leases=self.leases,
            active=active,
            metrics=self.registry,
        )

    def run(self, data: DetectInput) -> dict:
        """Feed every step, evaluate, snapshot, then recover and compare."""
        agents, plane = self.agents, self.plane
        agents.on_communicator(data.communicator)
        # Wall intervals (time.perf_counter); the repetition converts them
        # to reference seconds once its speed samples are complete.
        ingest_spans = []
        eval_spans = []
        last = len(data.steps)
        for index, (now, launches, ops, messages) in enumerate(data.steps, start=1):
            self.now = now
            started = time.perf_counter()
            for record in launches:
                agents.on_op_launch(record)
            for record in ops:
                agents.on_op(record)
            for record in messages:
                agents.on_message(record)
            ingest_spans.append((started, time.perf_counter()))
            started = time.perf_counter()
            plane.evaluate(now + EVAL_OFFSET)
            eval_spans.append((started, time.perf_counter()))
            if index % data.size.snapshot_every == 0 and index < last:
                plane.snapshot()
                self.store.compact()
        expected = plane.state_digest()
        recovery_spans = []
        digest_match = True
        for _ in range(data.size.recoveries):
            fresh = self._new_plane(active=False)
            started = time.perf_counter()
            info = fresh.recover(now=self.now + EVAL_OFFSET + 1.0)
            recovery_spans.append((started, time.perf_counter()))
            digest_match = digest_match and info["digest"] == expected
        verdicts = [
            [a.anomaly_type.value, a.comm_id, [str(s) for s in a.suspects], a.detected_at]
            for a in plane.master.anomalies
        ]
        recall, precision = score(verdicts, data.faults)
        return {
            "output": {"verdicts": verdicts, "digest_match": digest_match},
            "detect": {
                "records": data.records,
                "ingest_spans": ingest_spans,
                "eval_spans": eval_spans,
                "recovery_spans": recovery_spans,
                "recall": recall,
                "precision": precision,
            },
        }


def score(verdicts: list, faults) -> tuple[float, float]:
    """(recall, precision) of verdicts against the injected faults.

    A verdict matches a fault when it names the fault's syndrome and
    exactly the fault's worker as its suspect.
    """

    def matches(verdict, fault) -> bool:
        return verdict[0] == fault.syndrome and verdict[2] == [fault.suspect]

    found = sum(1 for f in faults if any(matches(v, f) for v in verdicts))
    right = sum(1 for v in verdicts if any(matches(v, f) for f in faults))
    recall = found / len(faults) if faults else 1.0
    precision = right / len(verdicts) if verdicts else 1.0
    return recall, precision
