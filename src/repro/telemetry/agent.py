"""C4 agents: the per-node hop between ACCL and the master.

In production each node runs one C4a process that tails the local
workers' monitoring buffers and ships them to the central master
(ACCL → C4a → master, Fig. 5).  The simulation delivers records
synchronously, so one :class:`AgentPlane` stands in for every node's
agent: it attributes each record to the node that produced it, holds a
per-node buffer while the master is down, and drops the records of a
node whose agent is dead.
"""

from __future__ import annotations

from functools import partial

from repro.collective.monitoring import CommunicatorRecord, MessageRecord, OpLaunchRecord, OpRecord
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.telemetry.collector import CentralCollector


class AgentPlane:
    """The full agent deployment: one MonitoringSink for every node's agent.

    Plug an instance into a :class:`~repro.collective.context.CollectiveContext`
    as its ``sink``; records are attributed to the node that produced
    them (op records to the rank's node, message records to the sender)
    and forwarded to the shared :class:`CentralCollector`.  A node's
    agent starts at its first record, or at :meth:`start_agent`.

    ``clock`` returns simulated time; it stamps communicator
    registrations and delivery heartbeats.

    Passing ``channel`` (an
    :class:`~repro.telemetry.unreliable.UnreliableChannel`) routes every
    forward through a lossy transport that drops, delays, and duplicates
    records — the chaos harness's partial-observability model.

    Passing ``leases`` (a
    :class:`~repro.controlplane.lease.LeaseTable`) makes every delivery
    double as a heartbeat: the producing node's lease is renewed, so the
    master's coverage view tracks which agents it is actually hearing
    from.  :meth:`suspend` / :meth:`resume` model master downtime —
    records buffer per node and are backfilled on resume — and
    :meth:`kill_agent` / :meth:`revive_agent` model dead agents whose
    records are dropped outright (their leases then expire, which is the
    blackout signal the degraded-mode gate consumes).
    """

    def __init__(
        self,
        collector: CentralCollector,
        clock=None,
        channel=None,
        leases=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.channel = channel
        self.leases = leases
        self._clock = clock or (lambda: 0.0)
        #: True while the master is down: records buffer locally.
        self.suspended = False
        #: Per started node, the (kind, record) pairs held while suspended.
        self._buffers: dict[int, list] = {}
        #: Communicator registrations held back during a suspension.
        self._pending_comms: list[tuple[CommunicatorRecord, float]] = []
        #: Nodes whose agent process is dead — their records vanish.
        self._dead_agents: set[int] = set()
        self.backfilled_records = 0
        #: The target, and per record kind its ``ingest_<kind>`` method.
        self.retarget(collector)
        registry = get_registry(metrics)
        self._m_forwarded = registry.counter(
            "telemetry_agent_records_forwarded_total",
            "Records shipped by C4 agents toward the master",
        ).labels()
        self._m_flushes = registry.counter(
            "telemetry_agent_flushes_total",
            "Resume backfills: passes that flush every agent buffer after a suspension",
        ).labels()
        self._m_buffered = registry.gauge(
            "telemetry_agent_buffered_records",
            "Records currently waiting in agent buffers",
        ).labels()
        self._m_dropped = registry.counter(
            "telemetry_agent_records_dropped_total",
            "Records lost because the producing node's agent was dead",
        ).labels()
        self._m_backfilled = registry.counter(
            "telemetry_agent_backfilled_records_total",
            "Records backfilled to the master after a suspension ended",
        ).labels()

    def start_agent(self, node_id: int) -> None:
        """Start a node's agent before its first record (heartbeats cover it)."""
        self._buffers.setdefault(node_id, [])

    def _deliver(self, node_id: int, kind: str, record) -> None:
        """Ship one record to the target's ``ingest_<kind>``, or hold it.

        Over a lossy channel the record keeps the target it was sent
        to, even if :meth:`retarget` runs while it is in flight.
        """
        if node_id in self._dead_agents:
            self._m_dropped.inc()
            return
        buffer = self._buffers.get(node_id)
        if buffer is None:
            buffer = self._buffers[node_id] = []
        if self.suspended:
            # Master downtime: hold the record locally; resume()
            # backfills it.  No heartbeat either — a dead/unreachable
            # master hears nothing.
            buffer.append((kind, record))
            self._m_buffered.inc()
            return
        if self.leases is not None:
            self.leases.heartbeat(node_id, self._clock())
        ingest = self._ingest[kind]
        if self.channel is None:
            ingest(record)
        else:
            self.channel.send(partial(ingest, record))
        self._m_forwarded.inc()

    def _live_nodes(self) -> list[int]:
        return [node for node in sorted(self._buffers) if node not in self._dead_agents]

    # ------------------------------------------------------------------
    # Master-downtime lifecycle
    # ------------------------------------------------------------------
    def suspend(self) -> None:
        """Enter master-downtime mode: records buffer instead of shipping."""
        self.suspended = True

    def resume(self, now: float) -> int:
        """End a suspension: heartbeat live agents and backfill buffers.

        Pending communicators are registered first, then each node's
        buffer ships in arrival order, nodes in the order they started.
        Returns the number of records backfilled to the master.  Agents
        re-register implicitly — the lease table treats a heartbeat from
        an unknown node as registration, so no handshake with the new
        master incarnation is needed.
        """
        self.suspended = False
        if self.leases is not None:
            for node_id in self._live_nodes():
                self.leases.heartbeat(node_id, now)
        for record, registered_at in self._pending_comms:
            self.collector.ingest_communicator(record, now=registered_at)
        flushed = 0
        channel = self.channel
        for buffer in self._buffers.values():
            for kind, record in buffer:
                ingest = self._ingest[kind]
                if channel is None:
                    ingest(record)
                else:
                    channel.send(partial(ingest, record))
            flushed += len(buffer)
            buffer.clear()
        self._m_flushes.inc()
        self._m_forwarded.inc(flushed)
        self._m_buffered.set(0)
        backfilled = len(self._pending_comms) + flushed
        self._pending_comms.clear()
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
        live = self._live_nodes()
        for node_id in live:
            self.leases.heartbeat(node_id, now)
        return len(live)

    def kill_agent(self, node_id: int) -> None:
        """Kill one node's agent: its records vanish, its lease decays."""
        self._dead_agents.add(node_id)
        buffer = self._buffers.get(node_id)
        if buffer:
            self._m_dropped.inc(len(buffer))
            self._m_buffered.dec(len(buffer))
            buffer.clear()

    def revive_agent(self, node_id: int, now: float) -> None:
        """Restart a dead agent; it re-registers via its first heartbeat."""
        self._dead_agents.discard(node_id)
        if self.leases is not None:
            self.leases.heartbeat(node_id, now)

    def retarget(self, collector) -> None:
        """Point every agent at a new master incarnation."""
        self.collector = collector
        self._ingest = {
            kind: getattr(collector, "ingest_" + kind) for kind in ("launch", "op", "message")
        }

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
