"""C4 agents: per-node intermediaries between ACCL and the master.

In production each node runs one C4a process that tails the local
workers' monitoring buffers and ships them to the central master.  In
the simulation, records are delivered synchronously; the agent still
exists as a real object so per-node concerns (batching, node attribution,
local buffering) have a home, and so the record path matches the paper's
architecture (ACCL → C4a → master).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collective.monitoring import CommunicatorRecord, MessageRecord, OpLaunchRecord, OpRecord
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.telemetry.collector import CentralCollector


@dataclass
class C4Agent:
    """One node's agent: buffers and forwards records to the collector.

    When ``channel`` is set, every forward goes through the lossy
    transport (:class:`~repro.telemetry.unreliable.UnreliableChannel`)
    instead of landing synchronously — records may arrive late,
    duplicated, or never.
    """

    node_id: int
    collector: CentralCollector
    records_forwarded: int = 0
    #: Pending (kind, record) pairs held while the master is suspended.
    buffer: list = field(default_factory=list)
    #: Optional lossy agent→master transport.
    channel: object = None

    def _ship(self, ingest, record) -> None:
        if self.channel is None:
            ingest(record)
        else:
            self.channel.send(lambda: ingest(record))
        self.records_forwarded += 1

    def forward_op(self, record: OpRecord) -> None:
        """Ship an operation-completion record to the master."""
        self._ship(self.collector.ingest_op, record)

    def forward_launch(self, record: OpLaunchRecord) -> None:
        """Ship an operation-startup record to the master."""
        self._ship(self.collector.ingest_launch, record)

    def forward_message(self, record: MessageRecord) -> None:
        """Ship a transport-layer record to the master."""
        self._ship(self.collector.ingest_message, record)

    def enqueue(self, kind: str, record) -> None:
        """Hold a record until the next flush (master suspended)."""
        self.buffer.append((kind, record))

    def flush(self) -> int:
        """Push all buffered records to the master; returns the count."""
        flushed = len(self.buffer)
        for kind, record in self.buffer:
            if kind == "op":
                self.forward_op(record)
            elif kind == "launch":
                self.forward_launch(record)
            else:
                self.forward_message(record)
        self.buffer.clear()
        return flushed


class AgentPlane:
    """The full agent deployment: a MonitoringSink routing to per-node agents.

    Plug an instance into a :class:`~repro.collective.context.CollectiveContext`
    as its ``sink``; records are attributed to the node that produced
    them (op records to the rank's node, message records to the sender)
    and forwarded to the shared :class:`CentralCollector`.

    Passing ``channel`` (an
    :class:`~repro.telemetry.unreliable.UnreliableChannel`) routes every
    forward through a lossy transport that drops, delays, and duplicates
    records — the chaos harness's partial-observability model.

    Passing ``leases`` (a
    :class:`~repro.controlplane.lease.LeaseTable`) makes every delivery
    double as a heartbeat: the producing node's lease is renewed, so the
    master's coverage view tracks which agents it is actually hearing
    from.  :meth:`suspend` / :meth:`resume` model master downtime —
    records buffer locally and are backfilled on resume — and
    :meth:`kill_agent` / :meth:`revive_agent` model dead agents whose
    records are dropped outright (their leases then expire, which is the
    blackout signal the degraded-mode gate consumes).
    """

    def __init__(
        self,
        collector: CentralCollector,
        clock=None,
        network=None,
        channel=None,
        leases=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if channel is not None and network is None:
            raise ValueError("a lossy channel needs a network for its timers")
        self.collector = collector
        self.agents: dict[int, C4Agent] = {}
        self.network = network
        self.channel = channel
        self.leases = leases
        #: True while the master is down: records buffer locally.
        self.suspended = False
        #: Communicator registrations held back during a suspension.
        self._pending_comms: list[tuple[CommunicatorRecord, float]] = []
        #: Nodes whose agent process is dead — their records vanish.
        self._dead_agents: set[int] = set()
        self.records_dropped = 0
        self.backfilled_records = 0
        registry = get_registry(metrics)
        self._m_forwarded = registry.counter(
            "telemetry_agent_records_forwarded_total",
            "Records shipped by C4 agents toward the master",
        )
        self._m_flushes = registry.counter(
            "telemetry_agent_flushes_total",
            "Buffered-mode flush passes across all agents",
        )
        self._m_buffered = registry.gauge(
            "telemetry_agent_buffered_records",
            "Records currently waiting in agent buffers",
        )
        self._m_dropped = registry.counter(
            "telemetry_agent_records_dropped_total",
            "Records lost because the producing node's agent was dead",
        )
        self._m_backfilled = registry.counter(
            "telemetry_agent_backfilled_records_total",
            "Records backfilled to the master after a suspension ended",
        )
        #: Optional callable returning simulated time, used to timestamp
        #: communicator registration.
        if clock is None and network is not None:

            def clock():
                return network.now

        self._clock = clock or (lambda: 0.0)

    def flush_all(self) -> int:
        """Flush every agent's buffer; returns total records shipped."""
        flushed = sum(agent.flush() for agent in self.agents.values())
        self._m_flushes.inc()
        self._m_forwarded.inc(flushed)
        self._m_buffered.set(0)
        return flushed

    def _beat(self, node_id: int) -> None:
        if self.leases is not None and node_id not in self._dead_agents:
            self.leases.heartbeat(node_id, self._clock())

    def _deliver(self, node_id: int, kind: str, record) -> None:
        if node_id in self._dead_agents:
            self.records_dropped += 1
            self._m_dropped.inc()
            return
        agent = self.agent(node_id)
        if self.suspended:
            # Master downtime: hold the record locally; resume()
            # backfills it.  No heartbeat either — a dead/unreachable
            # master hears nothing.
            agent.enqueue(kind, record)
            self._m_buffered.inc()
            return
        self._beat(node_id)
        if kind == "op":
            agent.forward_op(record)
        elif kind == "launch":
            agent.forward_launch(record)
        else:
            agent.forward_message(record)
        self._m_forwarded.inc()

    def agent(self, node_id: int) -> C4Agent:
        """The (lazily created) agent of one node."""
        agent = self.agents.get(node_id)
        if agent is None:
            agent = C4Agent(
                node_id=node_id, collector=self.collector, channel=self.channel
            )
            self.agents[node_id] = agent
        return agent

    # ------------------------------------------------------------------
    # Master-downtime lifecycle
    # ------------------------------------------------------------------
    def suspend(self) -> None:
        """Enter master-downtime mode: records buffer instead of shipping."""
        self.suspended = True

    def resume(self, now: float) -> int:
        """End a suspension: heartbeat live agents and backfill buffers.

        Returns the number of records backfilled to the master.  Agents
        re-register implicitly — the lease table treats a heartbeat from
        an unknown node as registration, so no handshake with the new
        master incarnation is needed.
        """
        self.suspended = False
        if self.leases is not None:
            for node_id in sorted(self.agents):
                if node_id not in self._dead_agents:
                    self.leases.heartbeat(node_id, now)
        backfilled = 0
        for record, registered_at in self._pending_comms:
            self.collector.ingest_communicator(record, now=registered_at)
            backfilled += 1
        self._pending_comms.clear()
        backfilled += self.flush_all()
        self.backfilled_records += backfilled
        self._m_backfilled.inc(backfilled)
        return backfilled

    def beat_all(self, now: float) -> int:
        """Heartbeat every live agent (the periodic keep-alive timer).

        A no-op returning 0 while suspended — a dead master hears no
        heartbeats, which is exactly how coverage decays during an
        outage.
        """
        if self.suspended or self.leases is None:
            return 0
        beaten = 0
        for node_id in sorted(self.agents):
            if node_id not in self._dead_agents:
                self.leases.heartbeat(node_id, now)
                beaten += 1
        return beaten

    def kill_agent(self, node_id: int) -> None:
        """Kill one node's agent: its records vanish, its lease decays."""
        self._dead_agents.add(node_id)
        agent = self.agents.get(node_id)
        if agent is not None and agent.buffer:
            self.records_dropped += len(agent.buffer)
            self._m_dropped.inc(len(agent.buffer))
            agent.buffer.clear()

    def revive_agent(self, node_id: int, now: float) -> None:
        """Restart a dead agent; it re-registers via its first heartbeat."""
        self._dead_agents.discard(node_id)
        if self.leases is not None:
            self.leases.heartbeat(node_id, now)

    def retarget(self, collector) -> None:
        """Point the plane (and every agent) at a new master incarnation."""
        self.collector = collector
        for agent in self.agents.values():
            agent.collector = collector

    # ------------------------------------------------------------------
    # MonitoringSink interface
    # ------------------------------------------------------------------
    def on_communicator(self, record: CommunicatorRecord) -> None:
        """Register the communicator with the master."""
        if self.suspended:
            self._pending_comms.append((record, self._clock()))
            return
        self.collector.ingest_communicator(record, now=self._clock())

    def on_op_launch(self, record: OpLaunchRecord) -> None:
        """Route a startup record through the producing node's agent."""
        self._deliver(record.location.node, "launch", record)

    def on_op(self, record: OpRecord) -> None:
        """Route an op record through the producing node's agent."""
        self._deliver(record.location.node, "op", record)

    def on_message(self, record: MessageRecord) -> None:
        """Route a message record through the sender node's agent."""
        self._deliver(record.src_node, "message", record)
