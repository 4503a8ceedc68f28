"""Agent heartbeat leases: who is the master actually hearing from?

Every C4 agent holds a time-bounded lease that its heartbeats renew.  An
expired lease means the master has heard nothing from that node for a
full lease period — the node's silence is now *uninformative*: it could
be a hung worker (C4D's business) or a dead agent/partitioned collector
(not a compute fault at all).  The coverage fraction and blind-node set
derived here are what puts the C4D master into degraded mode, turning
telemetry blackouts into missed-detection latency instead of
false-isolation storms.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry, get_registry


class LeaseTable:
    """Per-node heartbeat leases with expiry-derived coverage."""

    def __init__(
        self,
        lease_seconds: float = 30.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.lease_seconds = lease_seconds
        #: node id -> lease expiry time.
        self._expiry: dict[int, float] = {}
        registry = get_registry(metrics)
        self._m_coverage = registry.gauge(
            "controlplane_agent_coverage",
            "Fraction of registered agents holding a live lease",
        )
        self._m_heartbeats = registry.counter(
            "controlplane_heartbeats_total", "Agent lease renewals received"
        ).labels()
        self._m_expired = registry.counter(
            "controlplane_lease_expiries_total",
            "Leases observed expired at a coverage query",
        )

    # ------------------------------------------------------------------
    # Registration / renewal
    # ------------------------------------------------------------------
    def register(self, node_id: int, now: float) -> None:
        """Open (or re-open) a node's lease starting now."""
        self._expiry[node_id] = now + self.lease_seconds

    def heartbeat(self, node_id: int, now: float) -> None:
        """Renew a lease; an unknown node auto re-registers.

        Auto re-registration is the recovery path after a master restart
        or failover: agents keep beating against the new incarnation and
        come back into coverage without an explicit handshake.
        """
        self._expiry[node_id] = now + self.lease_seconds
        self._m_heartbeats.inc()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def blind_nodes(self, now: float) -> list[int]:
        """Nodes whose lease expired — silence from them means nothing."""
        expired = sorted(node for node, expiry in self._expiry.items() if now >= expiry)
        self._m_expired.inc(len(expired))
        return expired

    def coverage(self, now: float) -> float:
        """Live fraction of registered agents (1.0 with none registered)."""
        if not self._expiry:
            self._m_coverage.set(1.0)
            return 1.0
        live = sum(1 for expiry in self._expiry.values() if now < expiry)
        fraction = live / len(self._expiry)
        self._m_coverage.set(fraction)
        return fraction
