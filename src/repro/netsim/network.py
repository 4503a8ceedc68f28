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

Each solve fills in one canonical order, so its rates depend only on
the multiset of active flows' signatures, (path, weight, rate cap).  A
flow's signature id is interned when its path is resolved, numbered by
first appearance; the active flows are sorted by it, flows with equal
signatures keeping their network order (they are interchangeable).  A
bounded memo maps the sorted ids to the rates in canonical position, so
a set of flows that comes back (every ring step re-posts the same
neighbour sends) is solved once.  Congestion overrides bypass the memo;
a capacity change clears it, and so does the reset that keeps the
signature table bounded.

Between two events the loop walks the active flows once, in network
order.  Each solve keeps the active flows and sets every flow's
``rate``, so :meth:`FlowNetwork._advance` moves every flow's bits with
no lookup, and notes the flows it leaves with no bits: those are the
completions.  Byte counters are kept only on the links named to
:meth:`FlowNetwork.meter`.  Each flow's resolved entry holds its
metered hops (usually none), and the advance adds its bits to those
alone, in flow-major, path order, so a metered link sums the same
terms in the same order as one ``+=`` per incidence would.  A network
that meters nothing touches no link between events.

A link that goes down marks the flows that cross it, from a link ->
flows index kept as flows are resolved and completed.  A flow with a
down hop is blocked: it stays ACTIVE but leaves the active set, so a
solve reads one membership per flow, not every hop.  A caller may take
a blocked flow's bits (work stealing), so the completions also check
the blocked flows.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

from repro.netsim.congestion import CongestionModel
from repro.netsim.engine import EventQueue
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

    #: Distinct sets of active flows whose rates the memo keeps.
    MEMO_SIZE = 64
    #: Signatures the table may hold before a solve resets it.
    SIGNATURE_LIMIT = 4096

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
        #: Link id -> the ids of the live flows whose resolved path
        #: crosses it (a dict used as an ordered set); a link gets its
        #: entry when the first flow crosses it.
        self._crossing: defaultdict[object, dict[object, None]] = defaultdict(dict)
        #: Flow id -> how many distinct links of its resolved path are
        #: down, for the blocked flows only: empty while no link is down.
        self._blocked: dict[object, int] = {}
        #: Ids of the links that keep byte counters; see :meth:`meter`.
        self._metered: set = set()
        #: The active flows of the last :meth:`compute_rates` in network
        #: order, which the loop advances and completes until the next
        #: solve, those of them with metered hops paired with the hops,
        #: and the solve's rates (keyed in canonical order).
        self._active: list[Flow] = []
        self._metered_active: list[tuple[Flow, tuple[Link, ...]]] = []
        self._rates: dict[object, float] = {}
        #: Flow id -> ``(path, weight, rate_cap, metered links, signature
        #: id, path-minimum capacity)`` of each live flow, re-resolved
        #: when any of the first three changes.  The path minimum is the
        #: base of a congestion throttle; without a congestion model it
        #: is None.
        self._resolved: dict[object, tuple] = {}
        #: ``(path as a tuple, weight, rate_cap)`` -> signature id, in
        #: first-appearance order.
        self._signature_ids: dict[tuple, int] = {}
        #: Sorted signature ids of an active set -> its rates in
        #: canonical position; at most ``MEMO_SIZE`` entries, oldest
        #: evicted first.
        self._memo: dict[tuple, list[float]] = {}
        #: The active flows the last :meth:`_advance` left with no bits.
        self._finished: list[Flow] = []
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
        #: Due time of the latest congestion tick scheduled, or None
        #: once a tick found no active flow and scheduled no successor.
        self._cc_due: Optional[float] = None
        self._flow_seq = 0
        #: The simulated world's id sources: numbers for unnamed
        #: communicators and for the QPs of ECMP connections.
        self.comm_numbers = itertools.count()
        self.qp_numbers = itertools.count(1000)
        self._running = False
        registry = get_registry(metrics)
        registry.gauge(
            "netsim_event_queue_depth", "Timer heap entries"
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

    def meter(self, link_ids: Iterable[object]) -> None:
        """Keep byte counters on these links from now on.

        Only a metered link's ``window_bits`` follows the traffic it
        carries; every other link's stays where it is.  Metering keeps
        every signature id and the memo, so no rate moves.
        """
        links = self.links
        for link_id in link_ids:
            if link_id not in links:
                raise KeyError(f"cannot meter unknown link {link_id!r}")
            self._metered.add(link_id)
        resolved = self._resolved
        for flow_id, (path, weight, rate_cap, _, signature, path_min) in resolved.items():
            resolved[flow_id] = (
                path, weight, rate_cap, self._metered_hops(path), signature, path_min
            )
        self._metered_active = [
            (flow, resolved[flow.flow_id][3])
            for flow in self._active
            if resolved[flow.flow_id][3]
        ]

    def _metered_hops(self, path) -> tuple[Link, ...]:
        metered = self._metered
        if not metered:
            return ()
        links = self.links
        return tuple([links[link_id] for link_id in path if link_id in metered])

    def set_link_capacity(self, link_id: object, capacity: float) -> None:
        """Change a link's capacity; rates follow at the next event boundary."""
        if capacity <= 0:
            raise ValueError(f"link {link_id!r} needs positive capacity, got {capacity}")
        self.links[link_id].capacity = capacity
        self._capacities[link_id] = capacity
        self._fair_share.capacity_changed(link_id)
        self._reset_signatures()
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
        blocked = self._blocked
        if link.state is LinkState.DOWN:
            self._links_down += 1
            for flow_id in self._crossing[link.link_id]:
                blocked[flow_id] = blocked.get(flow_id, 0) + 1
        else:
            self._links_down -= 1
            for flow_id in self._crossing[link.link_id]:
                left = blocked[flow_id] - 1
                if left:
                    blocked[flow_id] = left
                else:
                    del blocked[flow_id]
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
        self._resolve(flow)
        flow.start_time = self.now
        if flow.flow_id in self._blocked:
            flow.state = FlowState.STALLED
        self.flows[flow.flow_id] = flow
        self._stale = True
        self._ensure_cc_timer()
        return flow

    def new_flow_id(self, prefix: str = "flow") -> str:
        """Generate a unique flow id (handy for transient transfers)."""
        self._flow_seq += 1
        return f"{prefix}-{self._flow_seq}"

    def _resolve(self, flow: Flow) -> tuple:
        """Intern ``flow``'s signature and index the links it crosses.

        Returns the flow's new ``_resolved`` entry.
        """
        flow_id = flow.flow_id
        path = flow.path
        signature = (tuple(path), flow.weight, flow.rate_cap)
        ids = self._signature_ids
        number = ids.get(signature)
        if number is None:
            number = ids[signature] = len(ids)
        known = self._resolved.get(flow_id)
        if known is None or known[0] is not path:
            self._uncross(flow_id, known)
            crossing = self._crossing
            for link_id in path:
                crossing[link_id][flow_id] = None
            if self._links_down:
                links = self.links
                down = sum(1 for link_id in dict.fromkeys(path) if not links[link_id].is_up)
                if down:
                    self._blocked[flow_id] = down
        path_min = None
        if self.congestion is not None:
            capacities = self._capacities
            path_min = min([capacities[link_id] for link_id in path])
        entry = (path, flow.weight, flow.rate_cap, self._metered_hops(path), number, path_min)
        self._resolved[flow_id] = entry
        return entry

    def _uncross(self, flow_id: object, entry: Optional[tuple]) -> None:
        """Drop ``flow_id`` from the index under its resolved ``entry``."""
        if entry is None:
            return
        crossing = self._crossing
        for link_id in entry[0]:
            crossing[link_id].pop(flow_id, None)
        self._blocked.pop(flow_id, None)

    def _reset_signatures(self) -> None:
        """Number the live flows' signatures afresh, and empty the memo."""
        self._signature_ids = {}
        self._memo.clear()
        for flow in self.flows.values():
            self._resolve(flow)

    @property
    def active_flows(self) -> list[Flow]:
        """Flows currently transferring (not stalled, not complete)."""
        active = FlowState.ACTIVE
        if not self._links_down:
            return [flow for flow in self.flows.values() if flow.state is active]
        blocked = self._blocked
        resolved = self._resolved
        links = self.links
        # A path replaced since the last resolve is checked hop by hop.
        return [
            flow
            for flow in self.flows.values()
            if flow.state is active
            and (
                flow.flow_id not in blocked
                if resolved[flow.flow_id][0] is flow.path
                else all(links[link_id].is_up for link_id in flow.path)
            )
        ]

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._queue.schedule(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        self._queue.schedule(time, callback)

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
            next_completion = self._next_completion_time()
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
        active flows are put in canonical order, by signature id with
        ties in network order, and the dict is keyed in that order.  An
        active set whose sorted ids the memo holds takes the memo's
        rates, which are what a solve in that order returns; any other,
        and every set with congestion overrides, is solved through
        :func:`~repro.netsim.fairness.max_min_rates`.  The solver updates
        its :class:`~repro.netsim.fairness.FairShareState` by the flows
        that came, went or changed since its last solve, and by the
        links resized by :meth:`set_link_capacity`, and fills from
        there.  A capacity change empties the memo and renumbers the
        signatures, as does a solve that finds more than
        ``SIGNATURE_LIMIT`` of them.  Change a flow's path by replacing
        it (``flow.path = [...]`` or :meth:`Flow.reroute`), never by
        mutating the list in place: a new path object is also what makes
        the network resolve the flow's links again.  Do not mutate the
        returned dict.
        """
        if self.congestion is None and not self._stale and not self._flows_changed():
            return self._rates
        self._stale = False
        if len(self._signature_ids) > self.SIGNATURE_LIMIT:
            self._reset_signatures()
        # One walk: the active flows, each with its signature id and its
        # metered hops, and a zero rate for every other flow.
        active_state = FlowState.ACTIVE
        links_down = self._links_down
        blocked = self._blocked
        resolved = self._resolved
        active: list[Flow] = []
        metered_active: list[tuple[Flow, tuple[Link, ...]]] = []
        signatures: list[int] = []
        for flow in self.flows.values():
            if flow.state is active_state:
                flow_id = flow.flow_id
                path, weight, rate_cap, metered, signature, _ = resolved[flow_id]
                if path is not flow.path or weight != flow.weight or rate_cap != flow.rate_cap:
                    _, _, _, metered, signature, _ = self._resolve(flow)
                if not links_down or flow_id not in blocked:
                    active.append(flow)
                    signatures.append(signature)
                    if metered:
                        metered_active.append((flow, metered))
                    continue
            flow.rate = 0.0
        self._active = active
        self._metered_active = metered_active
        order = sorted(range(len(active)), key=signatures.__getitem__)
        canonical = [active[i] for i in order]
        overrides: dict[object, float] = {}
        if self.congestion is not None:
            for flow in active:
                throttle = self.congestion.throttle_of(flow)
                if throttle < 1.0:
                    base = flow.rate_cap
                    if base is None:
                        base = resolved[flow.flow_id][5]
                    overrides[flow.flow_id] = throttle * base
        # Overrides are solver inputs the signatures do not hold, so a
        # set solved under them is neither looked up nor kept.
        key = None if overrides else tuple([signatures[i] for i in order])
        remembered = None if key is None else self._memo.get(key)
        if remembered is None:
            rates = max_min_rates(
                canonical, self._capacities, cap_overrides=overrides, state=self._fair_share
            )
            remembered = list(rates.values())
            if key is not None:
                memo = self._memo
                if len(memo) >= self.MEMO_SIZE:
                    del memo[next(iter(memo))]
                memo[key] = remembered
        else:
            rates = dict(zip([flow.flow_id for flow in canonical], remembered))
        for flow, rate in zip(canonical, remembered):
            flow.rate = rate
        self._rates = rates
        return rates

    def _flows_changed(self) -> bool:
        """Whether a flow changed behind the network since the last solve.

        A flow's solver inputs are its resolved entry (path object,
        weight, rate cap), its state and whether it is blocked; the last
        solve's active list holds, in network order, the ACTIVE flows
        that were not blocked.  So nothing changed while every ACTIVE
        flow matches its entry and the unblocked ones are that list.
        """
        active_state = FlowState.ACTIVE
        blocked = self._blocked
        resolved = self._resolved
        active = self._active
        count = len(active)
        position = 0
        for flow in self.flows.values():
            if flow.state is not active_state:
                continue
            flow_id = flow.flow_id
            path, weight, rate_cap, _, _, _ = resolved[flow_id]
            if path is not flow.path or weight != flow.weight or rate_cap != flow.rate_cap:
                return True
            if flow_id in blocked:
                continue
            if position == count or active[position] is not flow:
                return True
            position += 1
        return position != count

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    # The three steps below run between one compute_rates() and the next,
    # so the active flows, their metered hops and their rates (each
    # flow's ``rate``; ``rates`` is that solve's dict) are those of the
    # last solve.  _advance is the one walk over them that moves bits,
    # and it notes the completions, also when no time passed (a caller
    # may have moved an active flow's bits off).  An ACTIVE flow off the
    # active list is blocked, so _fire_completions checks those too.
    def _next_completion_time(self) -> Optional[float]:
        # now + min(x) is min(now + x): rounding keeps the order.
        best: Optional[float] = None
        for flow in self._active:
            rate = flow.rate
            if rate <= 0:
                continue
            eta = flow.remaining / rate
            if best is None or eta < best:
                best = eta
        return None if best is None else self.now + best

    def _advance(self, dt: float, rates: dict[object, float]) -> None:
        if dt < 0:
            raise AssertionError(f"negative dt {dt}")
        active = self._active
        if dt == 0:
            self._finished = [
                flow for flow in active if flow.remaining <= _COMPLETION_REL_EPS * flow.size
            ]
            return
        finished = []
        for flow in active:
            remaining = flow.remaining - flow.rate * dt
            flow.remaining = remaining = remaining if remaining > 0.0 else 0.0
            if remaining <= _COMPLETION_REL_EPS * flow.size:
                finished.append(flow)
        # Flow-major, path order: each metered link's counter sums in the
        # same order as one Link.account() call per incidence would.
        for flow, hops in self._metered_active:
            transferred = flow.rate * dt
            for link in hops:
                link.window_bits += transferred
        self._finished = finished
        if self.congestion is not None:
            self.congestion.observe(active, rates, self._capacities, dt)

    def _fire_completions(self) -> None:
        finished = self._finished
        self._finished = []
        if self._blocked:
            flows = self.flows
            for flow_id in self._blocked:
                flow = flows[flow_id]
                if (
                    flow.state is FlowState.ACTIVE
                    and flow.remaining <= _COMPLETION_REL_EPS * flow.size
                ):
                    # A caller took a blocked flow's bits.  One scan puts
                    # the completions in network order.
                    finished = [
                        flow
                        for flow in flows.values()
                        if flow.state is FlowState.ACTIVE
                        and flow.remaining <= _COMPLETION_REL_EPS * flow.size
                    ]
                    break
        if finished:
            self._stale = True
        for flow in finished:
            flow.state = FlowState.COMPLETED
            flow.end_time = self.now
            flow_id = flow.flow_id
            entry = self._resolved.pop(flow_id)
            self._uncross(flow_id, entry)
            # Credit the float residue so byte accounting is exact.
            if flow.remaining > 0:
                for link in entry[3]:
                    link.account(flow.remaining)
            flow.remaining = 0.0
            del self.flows[flow_id]
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
        if self._cc_due is not None and self._cc_due > self.now:
            return
        self._cc_due = self.now + self.congestion.TICK_INTERVAL
        self._queue.schedule(self._cc_due, self._cc_tick)

    def _cc_tick(self) -> None:
        assert self.congestion is not None
        active = self.active_flows
        if not active:
            self._cc_due = None
            return
        rates = {flow.flow_id: flow.rate for flow in active}
        self.congestion.tick(active, rates, self._capacities)
        self._cc_due = self.now + self.congestion.TICK_INTERVAL
        self._queue.schedule(self._cc_due, self._cc_tick)

    def reset_link_windows(self) -> None:
        """Zero every link's windowed byte counter (start a sample window)."""
        for link in self.links.values():
            link.reset_window()
