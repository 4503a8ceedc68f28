"""Weighted max-min fair rate allocation (progressive filling).

Given links with capacities and flows with weights and optional rate
caps, compute the instantaneous rate of every flow.  This is the classic
water-filling algorithm: repeatedly find the most constrained link
(smallest capacity per unit of unfrozen weight), freeze every flow
crossing it at its fair share, remove the consumed capacity, repeat.

Rate caps are handled by giving each capped flow a private virtual link
of that capacity, which integrates caps into the fixed point instead of
clipping afterwards (clipping would fail to redistribute the freed
bandwidth to other flows).

:func:`max_min_rates` is the solver the network uses.  It fills over a
:class:`FairShareState`: the incidence lists of the active flows on
integer link slots, which a :class:`~repro.netsim.network.FlowNetwork`
keeps between solves.  The network hands each solve a :class:`Delta`,
the flows that came, went or changed since the state's last solve, so
the update costs what changed and never walks every member.  The
network passes the flows in its canonical order, so a new flow may land
anywhere in the list.  A call without a state builds one from empty,
in one pass.
:func:`max_min_rates_reference`, the vectorized numpy formulation, is
kept as the test oracle in ``tests/netsim/test_fairness.py``.

The two are **bit-for-bit equal** on any flow order, including the key
order of the returned dict.  The reference numbers links by first appearance along
the flow list (a capped flow's virtual link right after its path), sums
each link's pending weight in incidence order, freezes at the link
``np.argmin`` picks (smallest share, lowest number among ties) and
subtracts in incidence order.  The solver keeps that order without the
numbers:

* **Keys.**  Each flow reserves a run of integer keys, one per path
  position plus one for its cap, and runs grow along the active list.
  A link's key is that of its first incidence, so keys sort as the
  reference numbers links.  A rebuild spaces the runs' bases
  ``_SPACING`` apart, and a new flow takes its run from the gap between
  its neighbours' runs, wherever in the list it lands.  A flow that
  changed comes back as a new flow, so a kept flow never moves.  The
  state rebuilds from empty only when it holds no flows or when a gap
  is used up.  The network starts a new state after a link capacity
  changes, or once more flows have left than it still holds.
* **Sums.**  A slot's member list stays in active-list order, and its
  pending weight is summed over it from zero whenever it changes.
* **Private links become bounds.**  A link that one incidence crosses
  keeps the share ``capacity / weight`` until its flow freezes, and
  nothing reads it afterwards.  So a flow's private links and its cap
  collapse into one bound, the least ``(share, key)`` among them, with
  the cap after the path on a tie.  The state keeps the bounds sorted.
* **Pick.**  Each step takes the lesser of the heap's top and the next
  unfrozen bound, by ``(share, key)``: the reference's ``argmin``.  The
  heap holds the shared slots only.  A slot's entry may sit below its
  current share (a share that rose is queued again only when its old
  entry surfaces), never above it, so a live entry at its current share
  on top is the least share of all.
* **Subtractions.**  Freezing subtracts a flow's rate and weight from
  its shared slots in path order, flow by flow in member order, as
  ``np.subtract.at`` does.  Only those slots can go negative, so only
  they are clamped at zero and re-keyed.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from repro.netsim.flows import Flow

#: Links whose unfrozen weight is at or below this are done (absorbs
#: float residue left by the weight subtractions).
_WEIGHT_EPS = 1e-15

#: Distance between consecutive bases after a rebuild: the keys a flow
#: added later between two flows can take.
_SPACING = 1 << 24


class _Member:
    """One flow as the state holds it: its inputs, slots and bound."""

    __slots__ = (
        "flow", "path", "weight", "cap", "base", "span", "slots", "shared", "bound", "rate"
    )

    def __init__(self, flow: Flow, weight: float, cap, base: int) -> None:
        self.flow = flow
        #: The inputs the slots and the bound were derived from.
        self.path = flow.path
        self.weight = weight
        self.cap = cap
        #: Keys ``base .. base + span`` are this flow's: path position p
        #: has key ``base + p`` and the cap ``base + len(path)``.  Bases
        #: grow along the active list, so keys sort as the reference
        #: numbers links; a new flow's base is set when it is placed.
        self.base = base
        self.span = len(flow.path)
        #: Slot of each path link, in path order.
        self.slots: list[int] = []
        #: The shared ones among them, in path order.
        self.shared: list[int] = []
        #: ``(share, key, self)``: the least of the private links and the
        #: cap, or None when the flow has neither.
        self.bound: Optional[tuple] = None
        #: This solve's rate; None until the flow freezes.
        self.rate: Optional[float] = None


_base = attrgetter("base")


class Delta(NamedTuple):
    """How an active list differs from the one a state solved last.

    The flows the state keeps are those it held that ``removed`` does
    not name; they must appear in the new list in their old order, and
    every other flow of the new list must be one of ``added``.
    """

    #: Flows whose members leave the state, in any order; a flow the
    #: state does not hold is skipped.  A flow that left and came back,
    #: or whose path, weight or rate cap changed, is removed and added.
    removed: Iterable[Flow] = ()
    #: Ascending positions, in the new list, of the flows to add.
    added: Sequence[int] = ()
    #: Kept flows whose cap override may have changed.
    recapped: Iterable[Flow] = ()


class FairShareState:
    """Incidence state of :func:`max_min_rates`, kept between solves.

    A state belongs to one capacity map: after a capacity changes, solve
    from a new state.  Each solve is handed the :class:`Delta` between
    the active list it solved last and the new one.
    """

    def __init__(self) -> None:
        self._members: list[_Member] = []
        self._reset()

    def _reset(self) -> None:
        """Empty the state, as a cold call starts."""
        for member in self._members:
            member.bound = None  # break the member -> bound -> member cycle
        #: Link id -> slot.  Per slot: capacity, members crossing it (one
        #: entry per incidence, in active-list order), pending weight,
        #: whether two or more incidences cross it, and for a shared
        #: slot its first-appearance key, initial share and heap entry.
        self._slot_of: dict[object, int] = {}
        self._capacity: list[float] = []
        self._crossing: list[list[_Member]] = []
        self._pending: list[float] = []
        self._is_shared: list[bool] = []
        self._key: list[int] = []
        self._share: list[Optional[float]] = []
        self._heads: dict[int, tuple] = {}
        #: Every member's bound, sorted.
        self._bounds: list[tuple] = []
        #: Members in active-list order, and by ``id(flow)``.
        self._members: list[_Member] = []
        self._by_flow: dict[int, _Member] = {}

    # ------------------------------------------------------------------
    # Bringing the state up to an active list
    # ------------------------------------------------------------------
    def _apply(self, flows: Sequence[Flow], capacities, overrides, delta: Delta) -> None:
        """Bring the state from its last solve to ``flows`` by ``delta``.

        A state with no members builds itself from ``flows`` instead.
        """
        if not self._members:
            return self._rebuild(flows, capacities, overrides)
        members = self._members
        by_flow = self._by_flow
        bounds = self._bounds
        dirty_slots: dict[int, None] = {}
        dirty_members: dict[_Member, None] = {}
        for flow in delta.removed:
            member = by_flow.pop(id(flow), None)
            if member is None:
                continue
            del members[bisect_left(members, member.base, key=_base)]
            self._detach(member, dirty_slots)
            if member.bound is not None:
                del bounds[bisect_left(bounds, member.bound)]
                member.bound = None  # break the member -> bound -> member cycle
        for flow in delta.recapped:
            member = by_flow.get(id(flow))
            if member is not None:
                cap = overrides.get(flow.flow_id, flow.rate_cap)
                if member.cap != cap:
                    member.cap = cap
                    dirty_members[member] = None
        # The new flows' positions, in runs of consecutive ones: each run
        # takes its keys from the gap between the members around it.
        added = delta.added
        count = len(added)
        first = 0
        while first < count:
            start = added[first]
            last = first + 1
            while last < count and added[last] == added[last - 1] + 1:
                last += 1
            run = []
            for flow in flows[start : start + last - first]:
                cap = overrides.get(flow.flow_id, flow.rate_cap) if overrides else flow.rate_cap
                run.append(_Member(flow, float(flow.weight), cap, 0))
            free = None
            if start:
                before = members[start - 1]
                free = before.base + before.span + 1
            limit = members[start].base if start < len(members) else None
            if not self._place(run, free, limit, capacities, dirty_slots):
                return self._rebuild(flows, capacities, overrides)
            members[start:start] = run
            for member in run:
                by_flow[id(member.flow)] = member
                dirty_members[member] = None
            first = last
        if len(members) != len(flows):
            raise ValueError(
                f"the delta leaves {len(members)} members for {len(flows)} flows"
            )
        self._refresh_slots(dirty_slots, dirty_members)
        self._refresh_members(dirty_members)

    def _place(self, run: list, free, limit, capacities, dirty: dict) -> bool:
        """Give ``run``'s new members runs of keys from ``free`` to ``limit``.

        ``free`` is the first key after the previous member's run and
        ``limit`` the next member's base; either is None at that end of
        the list.  The runs are spread evenly over the gap, leaving room
        on both sides.  Returns False, placing nothing, when the gap is
        too small.
        """
        count = len(run)
        if limit is None:
            step = _SPACING
            if free is None:
                free = 0
        elif free is None:
            step = _SPACING
            free = limit - (count + 1) * _SPACING
        else:
            step = (limit - free) // (count + 1)
        for member in run:
            if member.span >= step:
                return False
        base = free
        for member in run:
            base += step
            member.base = base
            self._attach(member, capacities, dirty)
        return True

    def _attach(self, member: _Member, capacities, dirty: dict) -> None:
        """Add ``member``'s incidences to its path's slots, in base order."""
        slot_of = self._slot_of
        crossing = self._crossing
        slots = member.slots
        for link_id in member.path:
            slot = slot_of.get(link_id)
            if slot is None:
                slot = len(crossing)
                slot_of[link_id] = slot
                self._capacity.append(float(capacities[link_id]))
                crossing.append([])
                self._pending.append(0.0)
                self._is_shared.append(False)
                self._key.append(0)
                self._share.append(None)
            insort(crossing[slot], member, key=_base)
            slots.append(slot)
            dirty[slot] = None

    def _detach(self, member: _Member, dirty: dict) -> None:
        crossing = self._crossing
        for slot in member.slots:
            crossing[slot].remove(member)
            dirty[slot] = None
        member.slots = []

    def _rebuild(self, flows: Sequence[Flow], capacities, overrides) -> None:
        """Build the state for ``flows`` from empty, in one pass."""
        self._reset()
        slot_of = self._slot_of
        crossing = self._crossing
        members = self._members
        by_flow = self._by_flow
        base = 0
        for flow in flows:
            cap = overrides.get(flow.flow_id, flow.rate_cap) if overrides else flow.rate_cap
            member = _Member(flow, float(flow.weight), cap, base)
            base += max(_SPACING, member.span + 1)
            slots = member.slots
            for link_id in flow.path:
                slot = slot_of.get(link_id)
                if slot is None:
                    slot = len(crossing)
                    slot_of[link_id] = slot
                    crossing.append([member])
                else:
                    crossing[slot].append(member)
                slots.append(slot)
            members.append(member)
            by_flow[id(flow)] = member
        num_slots = len(crossing)
        self._capacity = [float(capacities[link_id]) for link_id in slot_of]
        self._pending = [0.0] * num_slots
        self._is_shared = [False] * num_slots
        self._key = [0] * num_slots
        self._share = [None] * num_slots
        self._refresh_slots(range(num_slots), None)
        derive = self._derive
        self._bounds = sorted([bound for bound in map(derive, members) if bound is not None])

    def _refresh_slots(self, slots, dirty_members: Optional[dict]) -> None:
        """Re-derive each slot's class, pending weight, key and heap entry.

        A slot that turned private or shared also dirties its members'
        bounds; a rebuild passes None, as it refreshes every member
        anyway.
        """
        capacity = self._capacity
        crossing = self._crossing
        pending = self._pending
        is_shared = self._is_shared
        key_of = self._key
        share_of = self._share
        heads = self._heads
        for slot in slots:
            crossed = crossing[slot]
            shared = len(crossed) > 1
            if dirty_members is not None and shared != is_shared[slot]:
                for member in crossed:
                    dirty_members[member] = None
            is_shared[slot] = shared
            if shared:
                weight = 0.0
                for member in crossed:
                    weight += member.weight
                pending[slot] = weight
                if weight > _WEIGHT_EPS:
                    share = capacity[slot] / weight
                    first = crossed[0]
                    key = first.base + first.slots.index(slot)
                    key_of[slot] = key
                    share_of[slot] = share
                    heads[slot] = (share, key, slot)
                    continue
            share_of[slot] = None
            heads.pop(slot, None)

    def _refresh_members(self, members) -> None:
        """Re-derive each member's shared slots and bound, keeping the bounds sorted."""
        bounds = self._bounds
        for member in members:
            old = member.bound
            if old is not None:
                del bounds[bisect_left(bounds, old)]
            bound = self._derive(member)
            if bound is not None:
                insort(bounds, bound)

    def _derive(self, member: _Member) -> Optional[tuple]:
        """Set ``member``'s shared slots and bound from its slots; returns the bound."""
        capacity = self._capacity
        is_shared = self._is_shared
        weight = member.weight
        shared = []
        bound = None
        for position, slot in enumerate(member.slots):
            if is_shared[slot]:
                shared.append(slot)
            elif weight > _WEIGHT_EPS:
                share = capacity[slot] / weight
                if bound is None or share < bound[0]:
                    bound = (share, member.base + position, member)
        cap = member.cap
        if cap is not None and weight > _WEIGHT_EPS:
            share = float(cap) / weight
            if bound is None or share < bound[0]:
                bound = (share, member.base + len(member.slots), member)
        member.shared = shared
        member.bound = bound
        return bound

    # ------------------------------------------------------------------
    # Progressive filling
    # ------------------------------------------------------------------
    def solve(
        self,
        flows: Sequence[Flow],
        capacities: Mapping[object, float],
        overrides: Mapping[object, float],
        delta: Delta,
    ) -> dict[object, float]:
        """Update the state to ``flows`` by ``delta`` and fill; see :func:`max_min_rates`."""
        if not flows:
            if self._members:
                self._reset()
            return {}
        try:
            self._apply(flows, capacities, overrides, delta)
        except BaseException:
            self._reset()  # a half-applied update is no base for the next one
            raise
        members = self._members
        crossing = self._crossing
        key_of = self._key
        residual = self._capacity[:]
        pending = self._pending[:]
        # share[s] is shared slot s's share, None once it is out of the
        # filling (no unfrozen weight left).  queued[s] is the share of
        # its live heap entry, never above share[s]: a share that rose
        # is re-queued only when its old entry reaches the top.
        share_of = self._share[:]
        queued = share_of[:]
        heap = list(self._heads.values())
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        for member in members:
            member.rate = None
        # The bounds are walked in order beside the heap: each step
        # takes whichever of the heap's top and the next bound is less.
        bounds = self._bounds
        num_bounds = len(bounds)
        next_bound = 0

        remaining = len(members)
        while remaining > 0:
            if heap and (next_bound == num_bounds or heap[0] < bounds[next_bound]):
                level, key, bottleneck = heappop(heap)
                if queued[bottleneck] != level:
                    continue  # stale entry: the slot was re-queued or retired
                share = share_of[bottleneck]
                if share != level:
                    queued[bottleneck] = share
                    heappush(heap, (share, key, bottleneck))
                    continue
                if math.isinf(level):
                    break
                share_of[bottleneck] = queued[bottleneck] = None
                newly = [member for member in crossing[bottleneck] if member.rate is None]
                if not newly:
                    continue  # float residue kept a fully frozen slot's weight up
                remaining -= len(newly)
                touched: list[int] = []
                for member in newly:
                    if member.rate is not None:
                        continue  # the flow lists this link twice
                    weight = member.weight
                    rate = weight * level
                    member.rate = rate
                    for slot in member.shared:
                        residual[slot] -= rate
                        pending[slot] -= weight
                    touched += member.shared
                pending[bottleneck] = 0.0
            elif next_bound < num_bounds:
                level, key, member = bounds[next_bound]
                next_bound += 1
                if member.rate is not None:
                    continue  # the flow froze on a shared link first
                if math.isinf(level):
                    break
                remaining -= 1
                weight = member.weight
                rate = weight * level
                member.rate = rate
                touched = member.shared
                for slot in touched:
                    residual[slot] -= rate
                    pending[slot] -= weight
            else:
                break
            for slot in touched:
                if residual[slot] < 0.0:
                    residual[slot] = 0.0
                weight = pending[slot]
                if weight > _WEIGHT_EPS:
                    share = residual[slot] / weight
                    share_of[slot] = share
                    if share < queued[slot]:
                        queued[slot] = share
                        heappush(heap, (share, key_of[slot], slot))
                else:
                    share_of[slot] = queued[slot] = None

        rates = {}
        for member in members:
            rate = member.rate
            rates[member.flow.flow_id] = 0.0 if rate is None else rate
        return rates


def max_min_rates(
    flows: Sequence[Flow],
    capacities: Mapping[object, float],
    cap_overrides: Mapping[object, float] | None = None,
    state: FairShareState | None = None,
    delta: Delta = Delta(),
) -> dict[object, float]:
    """Compute weighted max-min fair rates.

    Parameters
    ----------
    flows:
        Active flows; each contributes ``flow.weight`` demand on every
        link of ``flow.path``.
    capacities:
        Mapping from link id to available capacity in bits/s.  Every
        link id referenced by a flow path must be present.
    cap_overrides:
        Optional mapping from flow id to an effective sender rate cap in
        bits/s, taking precedence over ``flow.rate_cap``.  Used by the
        congestion model to throttle senders without mutating flows.
    state:
        The :class:`FairShareState` of earlier solves over the same
        ``capacities``; it is updated to ``flows`` by ``delta``.
        Without one, or with one that holds no flows, the solve builds
        its state from ``flows``.
    delta:
        The :class:`Delta` from the list ``state`` solved last to
        ``flows``; the default says they are the same flows.

    Returns
    -------
    dict
        Mapping from ``flow.flow_id`` to allocated rate in bits/s.
    """
    if state is None:
        state = FairShareState()
    return state.solve(flows, capacities, cap_overrides or {}, delta)
