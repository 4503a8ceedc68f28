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

:func:`max_min_rates` is the solver the network uses.  It is scalar
Python driven by a ``(share, local link index)`` min-heap with lazy
invalidation: a filling iteration re-keys only the links its newly
frozen flows cross, so a whole solve costs O(incidences · log links)
instead of O(links) numpy work per iteration.

:func:`max_min_rates_reference` is the vectorized numpy formulation it
replaced, kept as the test oracle.  The two are **bit-for-bit equal**,
including the key order of the returned dict, because the heap solver
performs the same IEEE operations in the same order:

* local link indices follow first appearance along the flow list, with
  a capped flow's virtual link right after its path;
* pending weights are summed in incidence order (flow-major, path
  order, cap link last), as ``np.bincount`` sums them;
* the heap pops the link ``np.argmin`` picks: the smallest share, the
  lowest index among ties;
* residual capacities and pending weights are decremented in the order
  ``np.subtract.at`` applies them;
* only the links an iteration touched can go negative, so only they are
  clamped at zero and re-keyed.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping, Sequence

import numpy as np

from repro.netsim.flows import Flow

#: Links whose unfrozen weight is at or below this are done (absorbs
#: float residue left by the weight subtractions).
_WEIGHT_EPS = 1e-15


def max_min_rates(
    flows: Sequence[Flow],
    capacities: Mapping[object, float],
    cap_overrides: Mapping[object, float] | None = None,
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

    Returns
    -------
    dict
        Mapping from ``flow.flow_id`` to allocated rate in bits/s.
    """
    if not flows:
        return {}
    overrides = cap_overrides or {}

    link_index: dict[object, int] = {}
    residual: list[float] = []
    pending: list[float] = []
    members: list[list[int]] = []  # per link: flow indices, incidence order
    incidences: list[list[int]] = []  # per flow: link indices, path then cap
    weights: list[float] = []

    for f_idx, flow in enumerate(flows):
        weight = float(flow.weight)
        weights.append(weight)
        crossed = []
        for link_id in flow.path:
            l_idx = link_index.get(link_id)
            if l_idx is None:
                l_idx = len(residual)
                link_index[link_id] = l_idx
                residual.append(float(capacities[link_id]))
                pending.append(0.0)
                members.append([])
            pending[l_idx] += weight
            members[l_idx].append(f_idx)
            crossed.append(l_idx)
        cap = overrides.get(flow.flow_id, flow.rate_cap)
        if cap is not None:
            crossed.append(len(residual))
            residual.append(float(cap))
            pending.append(weight)
            members.append([f_idx])
        incidences.append(crossed)

    # key[l] is the share of link l's live heap entry, None when the link
    # is out of the filling (no unfrozen weight left).
    key: list[float | None] = [None] * len(residual)
    heap: list[tuple[float, int]] = []
    for l_idx, weight in enumerate(pending):
        if weight > _WEIGHT_EPS:
            share = residual[l_idx] / weight
            key[l_idx] = share
            heap.append((share, l_idx))
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush

    num_flows = len(flows)
    rates = [0.0] * num_flows
    frozen = [False] * num_flows
    remaining = num_flows

    while remaining > 0 and heap:
        level, bottleneck = heappop(heap)
        if key[bottleneck] != level:
            continue  # stale entry: the link was re-keyed or retired
        if math.isinf(level):
            break
        key[bottleneck] = None
        newly = [f_idx for f_idx in members[bottleneck] if not frozen[f_idx]]
        if not newly:
            continue  # float residue kept a fully frozen link's weight up
        remaining -= len(newly)
        touched: list[int] = []
        for f_idx in newly:
            if frozen[f_idx]:
                continue  # the flow lists this link twice
            frozen[f_idx] = True
            weight = weights[f_idx]
            rate = weight * level
            rates[f_idx] = rate
            for l_idx in incidences[f_idx]:
                residual[l_idx] -= rate
                pending[l_idx] -= weight
                touched.append(l_idx)
        pending[bottleneck] = 0.0
        for l_idx in touched:
            if residual[l_idx] < 0.0:
                residual[l_idx] = 0.0
            weight = pending[l_idx]
            if weight > _WEIGHT_EPS:
                share = residual[l_idx] / weight
                if key[l_idx] != share:
                    key[l_idx] = share
                    heappush(heap, (share, l_idx))
            else:
                key[l_idx] = None

    return {flow.flow_id: rates[f_idx] for f_idx, flow in enumerate(flows)}


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
