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
flow's signature id is interned when it is added, and again at the
first solve after a write while it is ACTIVE, numbered by first
appearance; the active flows are sorted by it, flows with equal
signatures keeping their network order (they are interchangeable).  A
bounded memo maps the sorted ids to the rates in canonical position, so
a set of flows that comes back (every ring step re-posts the same
neighbour sends) is solved once.  Congestion overrides bypass the memo;
a capacity change clears it, and so does the reset that keeps the
signature table bounded.

The network keeps its active structures as things happen, so no solve
walks every flow.  A flow is active while it is ACTIVE and no link of
its path is down.  Adding a flow, completing it, a link going down or
up, and a write to a live flow's path, weight or rate cap (the flow
reports it, see :class:`~repro.netsim.flows.Flow`) each move that flow
in or out of the active flows, kept in network order.  The next solve
interns the signatures of the flows that changed, in network order,
and places them in the canonical list, kept sorted by (signature id,
network order) beside the signature ids that form the memo key.  The
solver's state is handed only the flows that came, went or changed
since it last filled.  Each solve sets every active flow's ``rate``,
so :meth:`FlowNetwork._advance` moves every flow's bits with no
lookup, and notes the flows it leaves with no bits: those are the
completions.  Byte counters are kept only on the links named to
:meth:`FlowNetwork.meter`.  Each flow's resolved entry holds its
metered hops (usually none), and the advance adds its bits to those
alone, in flow-major, path order, so a metered link sums the same
terms in the same order as one ``+=`` per incidence would.  A network
that meters nothing touches no link between events.

A link that goes down marks the flows that cross it, from a link ->
flows index kept as flows are added, written and completed.  A flow with a
down hop is blocked: it stays ACTIVE but leaves the active flows.  A
caller may take a blocked flow's bits (work stealing), so the
completions also check the blocked flows.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from collections import defaultdict
from typing import Callable, Iterable, Optional

from repro.netsim.congestion import CongestionModel
from repro.netsim.engine import EventQueue
from repro.netsim.fairness import Delta, FairShareState, max_min_rates
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
        #: Links currently down.  While it is zero no flow is blocked,
        #: and no path needs checking.
        self._links_down = 0
        #: Link id -> the ids of the live flows whose path crosses it (a
        #: dict used as an ordered set); a link gets its entry when the
        #: first flow crosses it.
        self._crossing: defaultdict[object, dict[object, None]] = defaultdict(dict)
        #: Flow id -> how many distinct links of its path are down, for
        #: the blocked flows only: empty while no link is down.
        self._blocked: dict[object, int] = {}
        #: Ids of the links that keep byte counters; see :meth:`meter`.
        self._metered: set = set()
        #: The active flows in network order (by add sequence), with
        #: their sequence numbers; those of them with metered hops,
        #: paired with the hops, and their sequence numbers.
        self._active: list[Flow] = []
        self._active_seqs: list[int] = []
        self._metered_active: list[tuple[Flow, tuple[Link, ...]]] = []
        self._metered_seqs: list[int] = []
        #: The active flows placed in canonical order, their keys
        #: ``(signature id, sequence)``, their signature ids (the memo
        #: key), and each placed flow's key by flow id.
        self._canonical: list[Flow] = []
        self._canonical_keys: list[tuple[int, int]] = []
        self._signatures: list[int] = []
        self._placed: dict[object, tuple[int, int]] = {}
        #: Flows that joined or left the active flows, or whose solver
        #: inputs changed, since the last solve: it interns and places
        #: the active ones and zeroes the others' rates.
        self._touched: dict[object, Flow] = {}
        #: The last solve's rates, keyed in canonical order.
        self._rates: dict[object, float] = {}
        #: Flow id -> ``(path, weight, rate_cap, metered links, signature
        #: id, path-minimum capacity, sequence)`` of each live flow.  A
        #: write to the flow updates it at once, with the signature None
        #: until the next solve interns it.  The path minimum is the base
        #: of a congestion throttle; without a congestion model it is
        #: None.  The sequence numbers flows in the order they were added.
        self._resolved: dict[object, tuple] = {}
        self._sequence = itertools.count()
        #: ``(path as a tuple, weight, rate_cap)`` -> signature id, in
        #: first-appearance order.
        self._signature_ids: dict[tuple, int] = {}
        #: Sorted signature ids of an active set -> its rates in
        #: canonical position; at most ``MEMO_SIZE`` entries, oldest
        #: evicted first.
        self._memo: dict[tuple, list[float]] = {}
        #: The active flows the last :meth:`_advance` left with no bits.
        self._finished: list[Flow] = []
        #: The solver's incidence state, carried from one fill to the
        #: next, and what it has not been told yet: the flows placed in
        #: and taken out of the canonical list since, by ``id(flow)``,
        #: and the cap overrides it last filled with.
        self._fair_share = FairShareState()
        self._came: dict[int, Flow] = {}
        self._gone: dict[int, Flow] = {}
        self._filled_overrides: dict[object, float] = {}
        #: Set by every change the network sees (a flow added, completed
        #: or changed, a link failed, restored or resized): until then
        #: :meth:`compute_rates` returns the last solve's rates.
        self._changed = True
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
        for flow_id, (path, weight, rate_cap, _, signature, path_min, seq) in resolved.items():
            metered = self._metered_hops(path)
            resolved[flow_id] = (path, weight, rate_cap, metered, signature, path_min, seq)
        self._metered_active = []
        self._metered_seqs = []
        for flow, seq in zip(self._active, self._active_seqs):
            hops = resolved[flow.flow_id][3]
            if hops:
                self._metered_active.append((flow, hops))
                self._metered_seqs.append(seq)

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
        self._reset_signatures()
        self._changed = True

    def link(self, link_id: object) -> Link:
        """Look up a link by id."""
        return self.links[link_id]

    def fail_link(self, link_id: object) -> list[Flow]:
        """Take a link down; stall affected flows and invoke the reroute hook.

        Returns the ACTIVE flows that were crossing the link, in network
        order.
        """
        link = self.links[link_id]
        link.fail()
        flows = self.flows
        resolved = self._resolved
        affected = [
            flows[flow_id]
            for flow_id in self._crossing[link_id]
            if flows[flow_id].state is FlowState.ACTIVE
        ]
        affected.sort(key=lambda flow: resolved[flow.flow_id][6])
        # They are blocked, so stalling them moves none of them.
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
        flows = self.flows
        resolved = self._resolved
        if link.state is LinkState.DOWN:
            self._links_down += 1
            for flow_id in self._crossing[link.link_id]:
                down = blocked.get(flow_id, 0) + 1
                blocked[flow_id] = down
                if down == 1:
                    self._leave(flows[flow_id], resolved[flow_id])
        else:
            self._links_down -= 1
            for flow_id in self._crossing[link.link_id]:
                left = blocked[flow_id] - 1
                if left:
                    blocked[flow_id] = left
                    continue
                del blocked[flow_id]
                flow = flows[flow_id]
                if flow.state is FlowState.ACTIVE:
                    self._join(flow, resolved[flow_id])
        self._changed = True

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
        entry = self._resolve(flow, next(self._sequence))
        flow.start_time = self.now
        if flow.flow_id in self._blocked:
            flow.state = FlowState.STALLED
        self.flows[flow.flow_id] = flow
        flow._network = self
        if flow.state is FlowState.ACTIVE:
            self._join(flow, entry)
        self._changed = True
        self._ensure_cc_timer()
        return flow

    def new_flow_id(self, prefix: str = "flow") -> str:
        """Generate a unique flow id (handy for transient transfers)."""
        self._flow_seq += 1
        return f"{prefix}-{self._flow_seq}"

    def _flow_changed(self, flow: Flow) -> None:
        """A live flow's path, weight, rate cap or state was written."""
        flow_id = flow.flow_id
        entry = self._resolved[flow_id]
        self._leave(flow, entry)
        entry = self._index(flow, entry, entry[6])
        if flow.state is FlowState.ACTIVE and flow_id not in self._blocked:
            self._join(flow, entry)
        self._touched[flow_id] = flow
        self._changed = True

    def _index(self, flow: Flow, known: Optional[tuple], seq: int) -> tuple:
        """Index the links ``flow`` crosses; returns its new entry.

        ``known`` is the flow's old entry, if any.  The new entry has no
        signature id until :meth:`_intern` gives it one.
        """
        flow_id = flow.flow_id
        path = flow.path
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
        entry = (path, flow.weight, flow.rate_cap, self._metered_hops(path), None, path_min, seq)
        self._resolved[flow_id] = entry
        return entry

    def _intern(self, flow_id: object, entry: tuple) -> tuple:
        """Give ``entry`` its signature id; returns the flow's new entry."""
        path, weight, rate_cap, metered, _, path_min, seq = entry
        signature = (tuple(path), weight, rate_cap)
        ids = self._signature_ids
        number = ids.get(signature)
        if number is None:
            number = ids[signature] = len(ids)
        entry = (path, weight, rate_cap, metered, number, path_min, seq)
        self._resolved[flow_id] = entry
        return entry

    def _resolve(self, flow: Flow, seq: int) -> tuple:
        """Index ``flow``'s links and intern its signature; returns its entry."""
        entry = self._index(flow, self._resolved.get(flow.flow_id), seq)
        return self._intern(flow.flow_id, entry)

    def _uncross(self, flow_id: object, entry: Optional[tuple]) -> None:
        """Drop ``flow_id`` from the index under its resolved ``entry``."""
        if entry is None:
            return
        crossing = self._crossing
        for link_id in entry[0]:
            crossing[link_id].pop(flow_id, None)
        self._blocked.pop(flow_id, None)

    def _reset_signatures(self) -> None:
        """Number the live flows' signatures afresh, and empty the memo.

        The canonical list is sorted again and the solver starts from a
        new state.
        """
        self._signature_ids = {}
        self._memo.clear()
        resolved = self._resolved
        flows = self.flows
        for flow in flows.values():
            self._resolve(flow, resolved[flow.flow_id][6])
        keys = [(resolved[flow.flow_id][4], resolved[flow.flow_id][6]) for flow in self._active]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self._canonical = [self._active[i] for i in order]
        self._canonical_keys = [keys[i] for i in order]
        self._signatures = [key[0] for key in self._canonical_keys]
        self._placed = dict(zip([flow.flow_id for flow in self._canonical], self._canonical_keys))
        # Every active flow is placed, so of the touched flows only the
        # others are left: their rates are zero.
        for flow_id, flow in self._touched.items():
            if flows.get(flow_id) is flow and flow_id not in self._placed:
                flow.rate = 0.0
        self._touched = {}
        self._restart_fair_share()

    def _restart_fair_share(self) -> None:
        """Let the next fill build its state from the canonical list."""
        self._fair_share = FairShareState()
        self._came = {}
        self._gone = {}
        self._filled_overrides = {}

    # The active structures.  _join and _leave keep the active flows in
    # network order as a flow starts or stops transferring; _place and
    # _unplace keep the canonical list, which a flow joins at the next
    # solve, once its signature is interned.
    def _join(self, flow: Flow, entry: tuple) -> None:
        seq = entry[6]
        position = bisect_left(self._active_seqs, seq)
        self._active_seqs.insert(position, seq)
        self._active.insert(position, flow)
        hops = entry[3]
        if hops:
            position = bisect_left(self._metered_seqs, seq)
            self._metered_seqs.insert(position, seq)
            self._metered_active.insert(position, (flow, hops))
        self._touched[flow.flow_id] = flow
        self._changed = True

    def _leave(self, flow: Flow, entry: tuple) -> None:
        """Take ``flow`` out of the active structures, if it is in them."""
        seq = entry[6]
        seqs = self._active_seqs
        position = bisect_left(seqs, seq)
        if position == len(seqs) or seqs[position] != seq:
            return
        del seqs[position]
        del self._active[position]
        seqs = self._metered_seqs
        position = bisect_left(seqs, seq)
        if position < len(seqs) and seqs[position] == seq:
            del seqs[position]
            del self._metered_active[position]
        self._unplace(flow)
        self._touched[flow.flow_id] = flow
        self._changed = True

    def _place(self, flow: Flow, key: tuple[int, int]) -> None:
        position = bisect_left(self._canonical_keys, key)
        self._canonical_keys.insert(position, key)
        self._canonical.insert(position, flow)
        self._signatures.insert(position, key[0])
        self._placed[flow.flow_id] = key
        self._came[id(flow)] = flow

    def _unplace(self, flow: Flow) -> None:
        key = self._placed.pop(flow.flow_id, None)
        if key is None:
            return
        position = bisect_left(self._canonical_keys, key)
        del self._canonical_keys[position]
        del self._canonical[position]
        del self._signatures[position]
        self._came.pop(id(flow), None)
        self._gone[id(flow)] = flow
        if len(self._gone) > len(self._canonical):
            # The state is further from the list than a rebuild is.
            self._restart_fair_share()

    def _place_touched(self) -> None:
        """Intern and place the touched flows, and zero the others' rates.

        The flows are taken in network order, as a walk over every flow
        would meet them, so their signatures are numbered as it would
        number them.
        """
        flows = self.flows
        resolved = self._resolved
        blocked = self._blocked
        touched = [flow for flow_id, flow in self._touched.items() if flows.get(flow_id) is flow]
        self._touched = {}
        touched.sort(key=lambda flow: resolved[flow.flow_id][6])
        active_state = FlowState.ACTIVE
        for flow in touched:
            flow_id = flow.flow_id
            if flow.state is not active_state:
                flow.rate = 0.0
                continue
            entry = resolved[flow_id]
            if entry[4] is None:
                entry = self._intern(flow_id, entry)
            if flow_id in blocked:
                flow.rate = 0.0
            else:
                self._place(flow, (entry[4], entry[6]))

    def _fill_delta(self, overrides: dict[object, float]) -> Delta:
        """What the solver's state has not been told since it last filled."""
        placed = self._placed
        keys = self._canonical_keys
        added = sorted(
            [bisect_left(keys, placed[flow.flow_id]) for flow in self._came.values()]
        )
        recapped = []
        filled = self._filled_overrides
        if filled or overrides:
            flows = self.flows
            changed = [flow_id for flow_id, cap in overrides.items() if filled.get(flow_id) != cap]
            changed += [flow_id for flow_id in filled if flow_id not in overrides]
            recapped = [flows[flow_id] for flow_id in changed if flow_id in flows]
        delta = Delta(list(self._gone.values()), added, recapped)
        self._came = {}
        self._gone = {}
        self._filled_overrides = overrides
        return delta

    @property
    def active_flows(self) -> list[Flow]:
        """Flows currently transferring (not stalled, blocked or complete)."""
        return list(self._active)

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

        Without a congestion model, a call with no change since the last
        solve (no flow added, completed or written, no link failed,
        restored or resized) returns that solve's dict.  Otherwise the
        flows touched since are interned and placed in the canonical
        list, by signature id with ties in network order, and the dict is
        keyed in that order.  An active set whose sorted ids the memo
        holds takes the memo's rates, which are what a solve in that
        order returns; any other, and every set with congestion
        overrides, is solved through
        :func:`~repro.netsim.fairness.max_min_rates`.  The solver updates
        its :class:`~repro.netsim.fairness.FairShareState` by the flows
        placed in and taken out of the canonical list since it last
        filled, and by the flows whose cap override changed, and fills
        from there.  A capacity change empties the memo, renumbers the
        signatures and starts the solver from a new state, as does a
        solve that finds more than ``SIGNATURE_LIMIT`` signatures.
        Change a flow's path by replacing it (``flow.path = [...]`` or
        :meth:`Flow.reroute`), never by mutating the list in place: only
        the assignment reaches the network.  Do not mutate the returned
        dict.
        """
        if self.congestion is None and not self._changed:
            return self._rates
        self._changed = False
        if len(self._signature_ids) > self.SIGNATURE_LIMIT:
            self._reset_signatures()
        if self._touched:
            self._place_touched()
        canonical = self._canonical
        overrides: dict[object, float] = {}
        if self.congestion is not None:
            resolved = self._resolved
            for flow in self._active:
                throttle = self.congestion.throttle_of(flow)
                if throttle < 1.0:
                    base = flow.rate_cap
                    if base is None:
                        base = resolved[flow.flow_id][5]
                    overrides[flow.flow_id] = throttle * base
        # Overrides are solver inputs the signatures do not hold, so a
        # set solved under them is neither looked up nor kept.
        key = None if overrides else tuple(self._signatures)
        remembered = None if key is None else self._memo.get(key)
        if remembered is None:
            rates = max_min_rates(
                canonical,
                self._capacities,
                cap_overrides=overrides,
                state=self._fair_share,
                delta=self._fill_delta(overrides),
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

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    # The three steps below run between one compute_rates() and the next,
    # which change nothing, so the active flows, their metered hops and
    # their rates (each flow's ``rate``; ``rates`` is that solve's dict)
    # are those of the last solve.  _advance is the one walk over them
    # that moves bits, and it notes the completions, also when no time
    # passed (a caller may have moved an active flow's bits off).  An
    # ACTIVE flow off the active list is blocked, so _fire_completions
    # checks those too.
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
            # A caller may have taken a blocked flow's bits.
            emptied = []
            for flow_id in self._blocked:
                flow = flows[flow_id]
                if (
                    flow.state is FlowState.ACTIVE
                    and flow.remaining <= _COMPLETION_REL_EPS * flow.size
                ):
                    emptied.append(flow)
            if emptied:
                resolved = self._resolved
                finished = sorted(finished + emptied, key=lambda flow: resolved[flow.flow_id][6])
        for flow in finished:
            flow.state = FlowState.COMPLETED
            flow.end_time = self.now
            flow_id = flow.flow_id
            entry = self._resolved.pop(flow_id)
            self._leave(flow, entry)
            self._uncross(flow_id, entry)
            flow._network = None
            self._changed = True
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
