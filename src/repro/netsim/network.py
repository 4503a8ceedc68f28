"""The flow network: links + flows + event loop.

:class:`FlowNetwork` is the heart of the substrate.  Upper layers
(collective transport, training jobs) add links once at construction and
then add flows over time; the network advances simulated time from one
event to the next, recomputing weighted max-min fair rates when an
event changed a solver input, and invoking completion callbacks (which
typically launch the next round of flows, modelling back-to-back
collective operations).

Link failures are first-class: :meth:`FlowNetwork.fail_link` stalls the
flows whose path crosses the dead link and hands them to an optional
``reroute_handler`` — the hook through which the routing layer (plain
ECMP reconvergence, or C4P's dynamic load balancer) reacts.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

from repro.netsim.congestion import CongestionModel
from repro.netsim.engine import EventQueue, TimerHandle
from repro.netsim.fairness import FairShareState, max_min_rates
from repro.netsim.flows import Flow, FlowState
from repro.netsim.links import Link, LinkState
from repro.obs.metrics import MetricsRegistry, get_registry

#: Flows whose remaining share falls below this fraction of their size
#: are complete (absorbs float residue from repeated rate changes).
_COMPLETION_REL_EPS = 1e-9


class FlowNetwork:
    """A capacitated network shared by concurrent flows.

    Parameters
    ----------
    congestion:
        Optional :class:`CongestionModel`.  When present, saturated links
        generate CNPs and throttle senders; when absent the fabric is an
        ideal lossless max-min fair network.
    """

    def __init__(
        self,
        congestion: Optional[CongestionModel] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.now: float = 0.0
        self.links: dict[object, Link] = {}
        self.flows: dict[object, Flow] = {}
        self.completed_flows: list[Flow] = []
        self.congestion = congestion
        #: Link id -> capacity, kept in step with ``Link.capacity`` by
        #: :meth:`add_link` and :meth:`set_link_capacity`; handed to the
        #: solver as is.
        self._capacities: dict[object, float] = {}
        #: Links currently down.  While it is zero every ACTIVE flow is
        #: transferring, and no path needs checking.
        self._links_down = 0
        #: The active flows of the last :meth:`compute_rates`, which the
        #: loop advances and completes until the next solve.
        self._active: list[Flow] = []
        #: The last solve's rates, and each flow's ``(flow, path, weight,
        #: rate_cap, state)`` as that solve saw them, in ``flows`` order.
        self._rates: dict[object, float] = {}
        self._solved: list[tuple] = []
        #: The solver's incidence state, carried from one solve to the next.
        self._fair_share = FairShareState()
        #: Set by every change the network sees (a flow added or
        #: completed, a link failed, restored or resized): the next
        #: :meth:`compute_rates` solves without rechecking the flows.
        self._stale = True
        #: Called as ``reroute_handler(link, affected_flows)`` when a link
        #: fails.  The handler may call ``flow.reroute(...)`` to keep a
        #: flow alive; flows left stalled transfer nothing.
        self.reroute_handler: Optional[Callable[[Link, list[Flow]], None]] = None
        self._queue = EventQueue()
        self._cc_timer: Optional[TimerHandle] = None
        self._flow_seq = 0
        self._running = False
        registry = get_registry(metrics)
        registry.gauge(
            "netsim_event_queue_depth", "Timer heap entries (incl. cancelled)"
        ).set_function(self._queue.depth)
        registry.gauge(
            "netsim_timers_scheduled", "Timers ever scheduled on the event loop"
        ).set_function(lambda: self._queue.timers_scheduled)
        registry.gauge(
            "netsim_timers_fired", "Timers the event loop has fired"
        ).set_function(lambda: self._queue.timers_fired)
        self._m_sim_seconds = registry.counter(
            "netsim_simulated_seconds_total", "Simulated time advanced by run()"
        )
        self._m_wall_seconds = registry.counter(
            "netsim_wall_seconds_total", "Wall-clock time spent inside run()"
        )

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def add_link(self, link_id: object, capacity: float, description: str = "") -> Link:
        """Register a directed link.  Fails on duplicate ids."""
        if link_id in self.links:
            raise ValueError(f"duplicate link id {link_id!r}")
        link = Link(link_id=link_id, capacity=capacity, description=description)
        link.on_state_change = self._link_state_changed
        self.links[link_id] = link
        self._capacities[link_id] = link.capacity
        return link

    def set_link_capacity(self, link_id: object, capacity: float) -> None:
        """Change a link's capacity; rates follow at the next event boundary."""
        if capacity <= 0:
            raise ValueError(f"link {link_id!r} needs positive capacity, got {capacity}")
        self.links[link_id].capacity = capacity
        self._capacities[link_id] = capacity
        self._fair_share.capacity_changed(link_id)
        self._stale = True

    def link(self, link_id: object) -> Link:
        """Look up a link by id."""
        return self.links[link_id]

    def fail_link(self, link_id: object) -> list[Flow]:
        """Take a link down; stall affected flows and invoke the reroute hook.

        Returns the list of flows that were crossing the link.
        """
        link = self.links[link_id]
        link.fail()
        affected = [
            flow
            for flow in self.flows.values()
            if link_id in flow.path and flow.state == FlowState.ACTIVE
        ]
        for flow in affected:
            flow.state = FlowState.STALLED
        if self.reroute_handler is not None:
            self.reroute_handler(link, affected)
        return affected

    def restore_link(self, link_id: object) -> None:
        """Bring a previously failed link back up."""
        self.links[link_id].restore()

    def _link_state_changed(self, link: Link) -> None:
        self._links_down += 1 if link.state is LinkState.DOWN else -1
        self._stale = True

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> Flow:
        """Start a flow at the current simulated time."""
        if flow.flow_id in self.flows:
            raise ValueError(f"duplicate flow id {flow.flow_id!r}")
        for link_id in flow.path:
            if link_id not in self.links:
                raise KeyError(f"flow {flow.flow_id!r} references unknown link {link_id!r}")
        flow.start_time = self.now
        if any(not self.links[link_id].is_up for link_id in flow.path):
            flow.state = FlowState.STALLED
        self.flows[flow.flow_id] = flow
        self._stale = True
        self._ensure_cc_timer()
        return flow

    def new_flow_id(self, prefix: str = "flow") -> str:
        """Generate a unique flow id (handy for transient transfers)."""
        self._flow_seq += 1
        return f"{prefix}-{self._flow_seq}"

    @property
    def active_flows(self) -> list[Flow]:
        """Flows currently transferring (not stalled, not complete)."""
        active = FlowState.ACTIVE
        if not self._links_down:
            return [flow for flow in self.flows.values() if flow.state is active]
        links = self.links
        return [
            flow
            for flow in self.flows.values()
            if flow.state is active and all(links[link_id].is_up for link_id in flow.path)
        ]

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self._queue.schedule(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self._queue.schedule(time, callback)

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation.

        Runs until there are no more events, or until simulated time
        reaches ``until`` (when given, ``now`` ends exactly at ``until``).

        Re-entrant calls (an event callback calling ``run()`` again) are
        rejected: they would interleave two event loops over one heap
        and fire timers out of ``(time, seq)`` order — the runtime twin
        of lint rule SIM005.
        """
        if self._running:
            raise RuntimeError(
                "FlowNetwork.run() re-entered from an event callback; "
                "schedule follow-up work with schedule()/schedule_at() instead"
            )
        self._running = True
        try:
            self._run(until)
        finally:
            self._running = False

    def _run(self, until: Optional[float]) -> None:
        # Wall-clock reads feed the sim-vs-wall observability counters
        # only; simulated behaviour never depends on them.
        wall_start = time.perf_counter()  # repro: noqa[SIM001]
        sim_start = self.now
        while True:
            rates = self.compute_rates()
            next_completion = self._next_completion_time(rates)
            next_timer = self._queue.next_time()
            candidates = [t for t in (next_completion, next_timer) if t is not None]
            if until is not None:
                candidates = [t for t in candidates if t <= until]
            if not candidates:
                break
            target = min(candidates)
            self._advance(target - self.now, rates)
            self.now = target
            self._fire_completions()
            for callback in self._queue.pop_due(self.now):
                callback()
        if until is not None and self.now < until:
            rates = self.compute_rates()
            self._advance(until - self.now, rates)
            self.now = until
            self._fire_completions()
        self._m_sim_seconds.inc(self.now - sim_start)
        # Same waiver as above: wall time is observability-only here.
        self._m_wall_seconds.inc(time.perf_counter() - wall_start)  # repro: noqa[SIM001]

    def compute_rates(self) -> dict[object, float]:
        """Instantaneous max-min fair rates of the active flows.

        Without a congestion model, a call whose solver inputs equal the
        last solve's returns that solve's dict: the same flows in the
        same order, each with the same path object, weight, rate cap and
        state, over the same link states and capacities.  Otherwise the
        solver updates its :class:`~repro.netsim.fairness.FairShareState`
        by the same inputs (flows that came, went or changed, and links
        resized by :meth:`set_link_capacity`) and fills from there.
        Change a flow's path by replacing it (``flow.path = [...]`` or
        :meth:`Flow.reroute`), never by mutating the list in place, and
        do not mutate the returned dict.
        """
        if self.congestion is None and not self._stale and not self._flows_changed():
            return self._rates
        self._stale = False
        active = self.active_flows
        self._active = active
        capacities = self._capacities
        overrides: dict[object, float] = {}
        if self.congestion is not None:
            for flow in active:
                throttle = self.congestion.throttle_of(flow)
                if throttle < 1.0:
                    base = flow.rate_cap
                    if base is None:
                        base = min(capacities[link_id] for link_id in flow.path)
                    overrides[flow.flow_id] = throttle * base
        rates = max_min_rates(
            active, capacities, cap_overrides=overrides, state=self._fair_share
        )
        solved = []
        for flow in self.flows.values():
            flow.rate = rates.get(flow.flow_id, 0.0)
            solved.append((flow, flow.path, flow.weight, flow.rate_cap, flow.state))
        self._rates = rates
        self._solved = solved
        return rates

    def _flows_changed(self) -> bool:
        """Whether a flow changed behind the network since the last solve."""
        if len(self.flows) != len(self._solved):
            return True
        for current, (flow, path, weight, rate_cap, state) in zip(
            self.flows.values(), self._solved
        ):
            if (
                current is not flow
                or flow.path is not path
                or flow.weight != weight
                or flow.rate_cap != rate_cap
                or flow.state is not state
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    # The three steps below run between one compute_rates() and the next,
    # so the active flows and their rates are those of the last solve.
    def _next_completion_time(self, rates: dict[object, float]) -> Optional[float]:
        best: Optional[float] = None
        for flow in self._active:
            rate = rates.get(flow.flow_id, 0.0)
            if rate <= 0:
                continue
            eta = self.now + flow.remaining / rate
            if best is None or eta < best:
                best = eta
        return best

    def _advance(self, dt: float, rates: dict[object, float]) -> None:
        if dt < 0:
            raise AssertionError(f"negative dt {dt}")
        if dt == 0:
            return
        active = self._active
        links = self.links
        # Flow-major, path order: each link's counters sum in the same
        # order as one Link.account() call per incidence would.
        for flow in active:
            transferred = rates.get(flow.flow_id, 0.0) * dt
            flow.remaining = max(0.0, flow.remaining - transferred)
            for link_id in flow.path:
                link = links[link_id]
                link.bits_carried += transferred
                link.window_bits += transferred
        if self.congestion is not None:
            self.congestion.observe(active, rates, self._capacities, dt)

    def _fire_completions(self) -> None:
        # With a link down, an ACTIVE flow may sit outside the active set
        # and still be done (its remaining bits moved off by the caller).
        candidates = self.flows.values() if self._links_down else self._active
        finished = [
            flow
            for flow in candidates
            if flow.state is FlowState.ACTIVE
            and flow.remaining <= _COMPLETION_REL_EPS * flow.size
        ]
        if finished:
            self._stale = True
        for flow in finished:
            flow.state = FlowState.COMPLETED
            flow.end_time = self.now
            # Credit the float residue so byte accounting is exact.
            if flow.remaining > 0:
                for link_id in flow.path:
                    self.links[link_id].account(flow.remaining)
            flow.remaining = 0.0
            del self.flows[flow.flow_id]
            self.completed_flows.append(flow)
            if self.congestion is not None:
                self.congestion.forget(flow)
        # Callbacks run after bookkeeping so they can add flows freely.
        for flow in finished:
            if flow.on_complete is not None:
                flow.on_complete(flow)

    def _ensure_cc_timer(self) -> None:
        if self.congestion is None:
            return
        if self._cc_timer is not None and not self._cc_timer.cancelled:
            if self._cc_timer.time > self.now:
                return
        interval = self.congestion.config.tick_interval
        self._cc_timer = self._queue.schedule(self.now + interval, self._cc_tick)

    def _cc_tick(self) -> None:
        assert self.congestion is not None
        active = self.active_flows
        if not active:
            self._cc_timer = None
            return
        rates = {flow.flow_id: flow.rate for flow in active}
        self.congestion.tick(active, rates, self._capacities)
        interval = self.congestion.config.tick_interval
        self._cc_timer = self._queue.schedule(self.now + interval, self._cc_tick)

    def reset_link_windows(self) -> None:
        """Zero every link's windowed byte counter (start a sample window)."""
        for link in self.links.values():
            link.reset_window()

    def stalled_flows(self) -> list[Flow]:
        """Flows currently stalled on a failed link."""
        return [f for f in self.flows.values() if f.state == FlowState.STALLED]

    def sanity_check(self) -> None:
        """Verify internal invariants; raises AssertionError on violation.

        Checks that no link is oversubscribed by the current rate
        allocation and that all flow bookkeeping is consistent.  Used by
        property-based tests.
        """
        rates = self.compute_rates()
        load: dict[object, float] = {}
        for flow in self.active_flows:
            for link_id in flow.path:
                load[link_id] = load.get(link_id, 0.0) + rates.get(flow.flow_id, 0.0)
        for link_id, total in load.items():
            capacity = self.links[link_id].capacity
            if total > capacity * (1 + 1e-9) + 1e-6:
                raise AssertionError(
                    f"link {link_id!r} oversubscribed: {total} > {capacity}"
                )
        for flow in self.flows.values():
            if flow.remaining < 0 or math.isnan(flow.remaining):
                raise AssertionError(f"flow {flow.flow_id!r} has bad remaining {flow.remaining}")
