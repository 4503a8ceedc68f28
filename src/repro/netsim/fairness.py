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
keeps between solves and updates by the flows that came, went or
changed.  A call without a state builds one from empty, in one pass.
:func:`max_min_rates_reference` is the vectorized numpy formulation,
kept as the test oracle.

The two are **bit-for-bit equal**, including the key order of the
returned dict.  The reference numbers links by first appearance along
the flow list (a capped flow's virtual link right after its path), sums
each link's pending weight in incidence order, freezes at the link
``np.argmin`` picks (smallest share, lowest number among ties) and
subtracts in incidence order.  The solver keeps that order without the
numbers:

* **Keys.**  Each flow reserves a run of integer keys, one per path
  position plus one for its cap, and runs grow along the active list.
  A link's key is that of its first incidence, so keys sort as the
  reference numbers links.  A flow rerouted onto a longer path than its
  run, or one that would land ahead of an older flow (a stalled flow
  coming back, a flow re-added), rebuilds the state from empty.
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
from bisect import insort
from operator import attrgetter
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.netsim.flows import Flow

#: Links whose unfrozen weight is at or below this are done (absorbs
#: float residue left by the weight subtractions).
_WEIGHT_EPS = 1e-15


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
        #: numbers links.
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


class FairShareState:
    """Incidence state of :func:`max_min_rates`, kept between solves.

    A state belongs to one capacity map.  Report a capacity change with
    :meth:`capacity_changed`; paths are compared by identity, so replace
    a flow's path rather than editing it in place.
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
        #: The first key the next new member gets.
        self._next_key = 0
        #: Links whose capacity changed since the last solve.
        self._changed_links: list[object] = []

    def capacity_changed(self, link_id: object) -> None:
        """Re-read ``link_id``'s capacity at the next solve."""
        if link_id in self._slot_of:
            self._changed_links.append(link_id)

    # ------------------------------------------------------------------
    # Bringing the state up to an active list
    # ------------------------------------------------------------------
    def _update(self, flows: Sequence[Flow], capacities, overrides) -> None:
        """Update the state to ``flows`` by diff, or rebuild it from empty."""
        if not self._members:
            return self._rebuild(flows, capacities, overrides)
        by_flow = self._by_flow
        get = by_flow.get
        dirty_slots: dict[int, None] = {}
        dirty_members: dict[_Member, None] = {}
        for link_id in self._changed_links:
            slot = self._slot_of[link_id]
            self._capacity[slot] = float(capacities[link_id])
            dirty_slots[slot] = None
        self._changed_links.clear()
        members = []
        added = 0
        last = -1
        for flow in flows:
            cap = overrides.get(flow.flow_id, flow.rate_cap) if overrides else flow.rate_cap
            member = get(id(flow))
            if member is None:
                member = _Member(flow, float(flow.weight), cap, self._next_key)
                self._next_key += member.span + 1
                by_flow[id(flow)] = member
                self._attach(member, capacities, dirty_slots)
                dirty_members[member] = None
                added += 1
                last = math.inf  # a retained flow after this one is out of order
            else:
                if member.base <= last:
                    return self._rebuild(flows, capacities, overrides)
                last = member.base
                if member.path is not flow.path:
                    if len(flow.path) > member.span:
                        return self._rebuild(flows, capacities, overrides)
                    self._detach(member, dirty_slots)
                    member.path = flow.path
                    self._attach(member, capacities, dirty_slots)
                    dirty_members[member] = None
                if member.weight != flow.weight:
                    member.weight = float(flow.weight)
                    for slot in member.slots:
                        dirty_slots[slot] = None
                    dirty_members[member] = None
                if member.cap != cap:
                    member.cap = cap
                    dirty_members[member] = None
            members.append(member)
        if len(members) - added < len(self._members):
            # Retained members lead ``members`` in their old order, so
            # the old members the walk does not meet are the flows that
            # left.
            position = 0
            for member in self._members:
                if position < len(members) and members[position] is member:
                    position += 1
                    continue
                self._detach(member, dirty_slots)
                member.bound = None
                if by_flow.get(id(member.flow)) is member:
                    del by_flow[id(member.flow)]
        self._members = members
        self._refresh_slots(dirty_slots, dirty_members)
        self._refresh_members(dirty_members)

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
            base += member.span + 1
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
        self._next_key = base
        num_slots = len(crossing)
        self._capacity = [float(capacities[link_id]) for link_id in slot_of]
        self._pending = [0.0] * num_slots
        self._is_shared = [False] * num_slots
        self._key = [0] * num_slots
        self._share = [None] * num_slots
        self._refresh_slots(range(num_slots), None)
        self._refresh_members(members)

    def _refresh_slots(self, slots, dirty_members: Optional[dict]) -> None:
        """Re-derive each slot's class, pending weight, key and heap entry.

        A slot that turned private or shared, or a private one (its
        capacity may have moved), also dirties its members' bounds; a
        rebuild passes None, as it refreshes every member anyway.
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
            if dirty_members is not None and (shared != is_shared[slot] or len(crossed) == 1):
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
        """Re-derive each member's shared slots and bound, and sort the bounds."""
        capacity = self._capacity
        is_shared = self._is_shared
        for member in members:
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
        # Dropping the bounds no member holds any more leaves a sorted
        # run; the sort merges the new ones into it.
        bounds = [bound for bound in self._bounds if bound[2].bound is bound]
        bounds += [member.bound for member in members if member.bound is not None]
        bounds.sort()
        self._bounds = bounds

    # ------------------------------------------------------------------
    # Progressive filling
    # ------------------------------------------------------------------
    def solve(
        self,
        flows: Sequence[Flow],
        capacities: Mapping[object, float],
        overrides: Mapping[object, float],
    ) -> dict[object, float]:
        """Update the state to ``flows`` and fill; see :func:`max_min_rates`."""
        if not flows:
            if self._members:
                self._reset()
            return {}
        try:
            self._update(flows, capacities, overrides)
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
        ``capacities``; it is updated to ``flows``.  Without one the
        solve starts from an empty state.

    Returns
    -------
    dict
        Mapping from ``flow.flow_id`` to allocated rate in bits/s.
    """
    if state is None:
        state = FairShareState()
    return state.solve(flows, capacities, cap_overrides or {})


def max_min_rates_reference(
    flows: Sequence[Flow],
    capacities: Mapping[object, float],
    cap_overrides: Mapping[object, float] | None = None,
) -> dict[object, float]:
    """Vectorized progressive filling: the oracle for :func:`max_min_rates`.

    Same contract and same result, bit for bit.  Each filling iteration
    recomputes every link's share with numpy over a COO incidence list
    (flow, link), which makes an iteration O(links + touched
    incidences).
    """
    if not flows:
        return {}
    overrides = cap_overrides or {}

    num_flows = len(flows)
    link_index: dict[object, int] = {}
    link_caps: list[float] = []
    coo_flow: list[int] = []
    coo_link: list[int] = []
    weights = np.empty(num_flows)

    for f_idx, flow in enumerate(flows):
        weights[f_idx] = flow.weight
        for link_id in flow.path:
            l_idx = link_index.get(link_id)
            if l_idx is None:
                l_idx = len(link_caps)
                link_index[link_id] = l_idx
                link_caps.append(capacities[link_id])
            coo_flow.append(f_idx)
            coo_link.append(l_idx)
        cap = overrides.get(flow.flow_id, flow.rate_cap)
        if cap is not None:
            l_idx = len(link_caps)
            link_caps.append(float(cap))
            coo_flow.append(f_idx)
            coo_link.append(l_idx)

    residual = np.array(link_caps)
    num_links = len(link_caps)
    coo_flow_arr = np.asarray(coo_flow, dtype=np.intp)
    coo_link_arr = np.asarray(coo_link, dtype=np.intp)

    # Per-link member lists: sort incidences by link for cheap slicing.
    order = np.argsort(coo_link_arr, kind="stable")
    sorted_links = coo_link_arr[order]
    sorted_flows = coo_flow_arr[order]
    starts = np.searchsorted(sorted_links, np.arange(num_links), side="left")
    ends = np.searchsorted(sorted_links, np.arange(num_links), side="right")

    pending_weight = np.bincount(coo_link_arr, weights=weights[coo_flow_arr], minlength=num_links)
    rates = np.zeros(num_flows)
    frozen = np.zeros(num_flows, dtype=bool)
    remaining = num_flows

    while remaining > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(pending_weight > 1e-15, residual / pending_weight, np.inf)
        bottleneck = int(np.argmin(share))
        level = share[bottleneck]
        if not np.isfinite(level):
            break
        members = sorted_flows[starts[bottleneck] : ends[bottleneck]]
        newly = members[~frozen[members]]
        if newly.size == 0:
            pending_weight[bottleneck] = 0.0
            continue
        rates[newly] = weights[newly] * level
        frozen[newly] = True
        remaining -= int(newly.size)
        # Subtract the frozen flows' rates and weights from their links.
        newly_set = np.zeros(num_flows, dtype=bool)
        newly_set[newly] = True
        touched_mask = newly_set[coo_flow_arr]
        touched_links = coo_link_arr[touched_mask]
        touched_flows = coo_flow_arr[touched_mask]
        np.subtract.at(residual, touched_links, rates[touched_flows])
        np.subtract.at(pending_weight, touched_links, weights[touched_flows])
        np.maximum(residual, 0.0, out=residual)
        pending_weight[bottleneck] = 0.0

    return {flow.flow_id: float(rates[f_idx]) for f_idx, flow in enumerate(flows)}
