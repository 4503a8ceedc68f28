"""Dynamic load balancing: shift QP load toward faster paths.

"The ACCL constantly evaluates message completion times on various
paths and prioritizes the fastest for data transfer" (§III-B).  The
balancer periodically compares the achieved per-QP rates of every
connection (an EWMA over the rates the transport observed) and raises
the load share of fast QPs / lowers that of slow ones, with hysteresis
so a balanced connection is left alone.

Two situations benefit:

* **link failures** — displaced QPs land on already-loaded routes; the
  balancer drains load from the now-congested paths (Fig. 12b), and
* **congestion from other tenants** — persistent rate asymmetry between
  a connection's QPs shifts traffic away from the contended spine.
"""

from __future__ import annotations

from repro.collective.context import CollectiveContext
from repro.collective.transport import Connection


class DynamicLoadBalancer:
    """Periodic per-connection QP-weight adjustment for one or more jobs.

    New weights are proportional to the measured rates, clamped to
    ``[MIN_WEIGHT, MAX_WEIGHT]``: a QP never fully drains, so its path
    keeps being measured (losing the measurement would blind the
    balancer to recovery).
    """

    #: Seconds between balancing passes.
    INTERVAL = 0.02
    #: Minimum fastest/slowest QP rate ratio before weights change.
    TRIGGER_RATIO = 1.15
    #: Clamp on per-QP load shares.
    MIN_WEIGHT = 0.1
    MAX_WEIGHT = 4.0

    def __init__(self, contexts: list[CollectiveContext]) -> None:
        if not contexts:
            raise ValueError("need at least one context to balance")
        self.contexts = contexts
        self.network = contexts[0].network
        self._armed = False

    def start(self) -> None:
        """Arm the periodic balancing timer on the event loop."""
        if self._armed:
            return
        self._armed = True
        self.network.schedule(self.INTERVAL, self._tick)

    def stop(self) -> None:
        """Disarm after the current tick."""
        self._armed = False

    def _tick(self) -> None:
        if not self._armed:
            return
        for context in self.contexts:
            for connection in context.connections:
                self.rebalance_connection(connection)
        self.network.schedule(self.INTERVAL, self._tick)

    def rebalance_connection(self, connection: Connection) -> bool:
        """Adjust one connection's QP weights from measured rates.

        Returns True when weights changed.  Connections without rate
        measurements on every QP are skipped (nothing to compare yet).
        """
        rates = []
        for alloc in connection.allocations:
            rate = connection_rate(connection, alloc.qp_num)
            if rate is None or rate <= 0:
                return False
            rates.append(rate)
        fastest = max(rates)
        slowest = min(rates)
        if fastest / slowest < self.TRIGGER_RATIO:
            return False
        mean_rate = sum(rates) / len(rates)
        for alloc, rate in zip(connection.allocations, rates, strict=True):
            weight = min(max(rate / mean_rate, self.MIN_WEIGHT), self.MAX_WEIGHT)
            connection.set_qp_weight(alloc, weight)
        return True


def connection_rate(connection: Connection, qp_num: int) -> float | None:
    """Latest measured rate of one QP, if any (bits/s)."""
    return connection.qp_rate_ewma.get(qp_num)
