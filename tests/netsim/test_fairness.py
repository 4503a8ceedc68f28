"""Tests for the weighted max-min fair solver.

The module also holds the solver's differential oracle,
:func:`max_min_rates_reference`.
"""

import gc
import weakref
from typing import Mapping, Sequence

import numpy as np
import pytest

from repro.netsim.fairness import Delta, FairShareState, max_min_rates
from repro.netsim.flows import Flow
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry


# -- the differential oracle -------------------------------------------


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


def _flow(fid, path, weight=1.0, rate_cap=None):
    return Flow(flow_id=fid, path=path, size=1.0, weight=weight, rate_cap=rate_cap)


class ListDriven:
    """A :class:`FairShareState` solved from whole active lists.

    Each call derives the :class:`Delta` from the list, the flows'
    inputs and the cap overrides of the call before.  A flow that left,
    whose path (by identity), weight or rate cap changed, or that moved
    ahead of a flow it followed, is removed, and added again if it is
    still in the list.  A kept flow whose override moved is recapped.
    """

    def __init__(self):
        self.state = FairShareState()
        self.last = []
        self.inputs = {}
        self.overrides = {}

    def restart(self):
        """Start from a new state, as after a capacity change."""
        self.__init__()

    def __call__(self, flows, caps, overrides=None):
        overrides = overrides or {}
        position = {id(flow): i for i, flow in enumerate(self.last)}
        kept = set()
        previous = -1
        for flow in flows:
            at = position.get(id(flow))
            if at is None or at < previous:
                continue
            path, weight, rate_cap = self.inputs[id(flow)]
            if path is flow.path and weight == flow.weight and rate_cap == flow.rate_cap:
                kept.add(id(flow))
                previous = at
        delta = Delta(
            removed=[flow for flow in self.last if id(flow) not in kept],
            added=[i for i, flow in enumerate(flows) if id(flow) not in kept],
            recapped=[
                flow
                for flow in flows
                if id(flow) in kept
                and overrides.get(flow.flow_id) != self.overrides.get(flow.flow_id)
            ],
        )
        rates = max_min_rates(flows, caps, cap_overrides=overrides, state=self.state, delta=delta)
        self.last = list(flows)
        self.inputs = {id(flow): (flow.path, flow.weight, flow.rate_cap) for flow in flows}
        self.overrides = dict(overrides)
        return rates


def test_empty_input():
    assert max_min_rates([], {}) == {}


def test_single_flow_gets_full_capacity():
    rates = max_min_rates([_flow("f", ["a"])], {"a": 10.0})
    assert rates["f"] == pytest.approx(10.0)


def test_equal_split_on_shared_link():
    flows = [_flow("f1", ["a"]), _flow("f2", ["a"])]
    rates = max_min_rates(flows, {"a": 10.0})
    assert rates["f1"] == pytest.approx(5.0)
    assert rates["f2"] == pytest.approx(5.0)


def test_weighted_split():
    flows = [_flow("f1", ["a"], weight=1.0), _flow("f2", ["a"], weight=3.0)]
    rates = max_min_rates(flows, {"a": 8.0})
    assert rates["f1"] == pytest.approx(2.0)
    assert rates["f2"] == pytest.approx(6.0)


def test_bottleneck_frees_capacity_elsewhere():
    # f2 is constrained on b, so f1 gets the leftover of a.
    flows = [_flow("f1", ["a"]), _flow("f2", ["a", "b"])]
    rates = max_min_rates(flows, {"a": 10.0, "b": 2.0})
    assert rates["f2"] == pytest.approx(2.0)
    assert rates["f1"] == pytest.approx(8.0)


def test_classic_three_flow_scenario():
    # Textbook: f1 on a, f2 on a+b, f3 on b; a=10, b=4.
    flows = [_flow("f1", ["a"]), _flow("f2", ["a", "b"]), _flow("f3", ["b"])]
    rates = max_min_rates(flows, {"a": 10.0, "b": 4.0})
    assert rates["f2"] == pytest.approx(2.0)
    assert rates["f3"] == pytest.approx(2.0)
    assert rates["f1"] == pytest.approx(8.0)


def test_rate_cap_limits_flow():
    flows = [_flow("f1", ["a"], rate_cap=1.0), _flow("f2", ["a"])]
    rates = max_min_rates(flows, {"a": 10.0})
    assert rates["f1"] == pytest.approx(1.0)
    assert rates["f2"] == pytest.approx(9.0)


def test_cap_override_takes_precedence():
    flows = [_flow("f1", ["a"], rate_cap=5.0)]
    rates = max_min_rates(flows, {"a": 10.0}, cap_overrides={"f1": 2.0})
    assert rates["f1"] == pytest.approx(2.0)


def test_cap_override_without_flow_cap():
    flows = [_flow("f1", ["a"])]
    rates = max_min_rates(flows, {"a": 10.0}, cap_overrides={"f1": 3.0})
    assert rates["f1"] == pytest.approx(3.0)


def test_no_link_oversubscribed():
    flows = [
        _flow("f1", ["a", "b"]),
        _flow("f2", ["b", "c"]),
        _flow("f3", ["a", "c"]),
        _flow("f4", ["a"]),
    ]
    caps = {"a": 7.0, "b": 3.0, "c": 5.0}
    rates = max_min_rates(flows, caps)
    load = {link: 0.0 for link in caps}
    for flow in flows:
        for link in flow.path:
            load[link] += rates[flow.flow_id]
    for link, total in load.items():
        assert total <= caps[link] * (1 + 1e-9)


def test_max_min_property_increasing_any_rate_needs_decrease():
    # At the max-min fixed point every flow crosses a saturated link.
    flows = [_flow("f1", ["a", "b"]), _flow("f2", ["b"]), _flow("f3", ["a"])]
    caps = {"a": 6.0, "b": 4.0}
    rates = max_min_rates(flows, caps)
    load = {link: 0.0 for link in caps}
    for flow in flows:
        for link in flow.path:
            load[link] += rates[flow.flow_id]
    for flow in flows:
        saturated = any(load[link] >= caps[link] * (1 - 1e-9) for link in flow.path)
        assert saturated, f"{flow.flow_id} could be increased"


def test_many_flows_one_link():
    flows = [_flow(f"f{i}", ["a"]) for i in range(100)]
    rates = max_min_rates(flows, {"a": 100.0})
    for rate in rates.values():
        assert rate == pytest.approx(1.0)


def test_disjoint_links_independent():
    flows = [_flow("f1", ["a"]), _flow("f2", ["b"])]
    rates = max_min_rates(flows, {"a": 3.0, "b": 7.0})
    assert rates["f1"] == pytest.approx(3.0)
    assert rates["f2"] == pytest.approx(7.0)


# ----------------------------------------------------------------------
# The incidence state kept between solves: every warm solve must equal
# the reference on the same input, bit for bit and in key order.
# ----------------------------------------------------------------------
def bits(rates):
    return [(flow_id, rate.hex()) for flow_id, rate in rates.items()]


def solve_warm(warm, flows, caps, overrides=None):
    """Re-solve with the :class:`ListDriven` ``warm`` and check it
    against the reference."""
    rates = warm(flows, caps, overrides)
    assert bits(rates) == bits(max_min_rates_reference(flows, caps, cap_overrides=overrides))
    return rates


def canonical_order(net, flows):
    """``flows`` in ``net``'s canonical order: by the id of each flow's
    signature, looked up afresh, and equal ids in the given order."""
    ids = net._signature_ids
    return sorted(flows, key=lambda flow: ids[(tuple(flow.path), flow.weight, flow.rate_cap)])


def check_network(net):
    """The network's rates against a reference solve over its active set,
    in the network's canonical order."""
    capacities = {link_id: link.capacity for link_id, link in net.links.items()}
    rates = net.compute_rates()
    reference = max_min_rates_reference(canonical_order(net, net.active_flows), capacities)
    assert bits(rates) == bits(reference)
    return rates


def test_stalled_flow_reactivated_ahead_of_newer_flows():
    net = FlowNetwork(metrics=MetricsRegistry())
    for link_id, capacity in (("a", 10.0), ("b", 6.0), ("c", 4.0)):
        net.add_link(link_id, capacity)
    f1 = net.add_flow(_flow("f1", ["a", "b"]))
    f2 = net.add_flow(_flow("f2", ["b", "c"]))
    check_network(net)
    net.fail_link("c")
    f3 = net.add_flow(_flow("f3", ["b"], weight=2.0))
    assert list(check_network(net)) == ["f1", "f3"]
    f2.reroute(["a", "b"])
    # f2 comes back ahead of the newer f3 in the network's flow order.
    assert list(check_network(net)) == ["f1", "f2", "f3"]
    assert [f1.rate, f2.rate, f3.rate] == [1.5, 1.5, 3.0]


def test_flow_returning_ahead_of_newer_flows_in_the_state():
    caps = {"a": 10.0, "b": 6.0}
    f1, f2, f3 = _flow("f1", ["a"]), _flow("f2", ["a", "b"]), _flow("f3", ["b"])
    warm = ListDriven()
    solve_warm(warm, [f1, f2, f3], caps)
    solve_warm(warm, [f1, f3], caps)
    solve_warm(warm, [f1, f2, f3], caps)
    solve_warm(warm, [f3, f1], caps)


def counting_rebuilds(monkeypatch, state):
    """Count ``state``'s rebuilds from empty; returns the count list."""
    rebuilds = []
    rebuild = state._rebuild

    def counting(*args):
        rebuilds.append(1)
        return rebuild(*args)

    monkeypatch.setattr(state, "_rebuild", counting)
    return rebuilds


def test_flow_inserted_between_retained_flows_needs_no_rebuild(monkeypatch):
    caps = {"a": 10.0, "b": 6.0, "c": 3.0}
    f1 = _flow("f1", ["a"])
    f2 = _flow("f2", ["a", "b"], weight=0.7)
    f3 = _flow("f3", ["b", "c"], rate_cap=2.0)
    f0 = _flow("f0", ["c", "a"], weight=0.3)
    f4 = _flow("f4", ["b"], weight=0.2, rate_cap=1.0)
    warm = ListDriven()
    solve_warm(warm, [f1, f3], caps)
    rebuilds = counting_rebuilds(monkeypatch, warm.state)
    # A new flow between two retained ones, then new flows at the front,
    # in an inner gap and at the back, in one update.
    for flows in ([f1, f2, f3], [f0, f1, f4, f2, f3, _flow("f5", ["c"])]):
        rates = solve_warm(warm, flows, caps)
        assert bits(rates) == bits(max_min_rates(flows, caps))
    assert rebuilds == []


def test_used_up_gap_rebuilds_the_state(monkeypatch):
    # Each solve puts one more flow right behind f1, halving the gap
    # before the flow placed last time, until no key is left in it.
    caps = {"a": 5.0, "b": 7.0}
    first, last = _flow("first", ["a", "b"]), _flow("last", ["b"], weight=0.3)
    warm = ListDriven()
    solve_warm(warm, [first, last], caps)
    rebuilds = counting_rebuilds(monkeypatch, warm.state)
    between = []
    for i in range(40):
        between.insert(0, _flow(f"f{i}", ["a"] if i % 2 else ["b", "a"], weight=0.1 + i % 3))
        solve_warm(warm, [first, *between, last], caps)
    assert 0 < len(rebuilds) < 5


def test_path_listing_a_link_twice():
    caps = {"a": 9.0, "b": 4.0, "c": 7.0}
    f1 = _flow("f1", ["a", "b", "a"], weight=0.5)
    f2 = _flow("f2", ["a"])
    f3 = _flow("f3", ["b", "c"], rate_cap=1.5)
    assert bits(max_min_rates([f1, f2, f3], caps)) == bits(
        max_min_rates_reference([f1, f2, f3], caps)
    )
    warm = ListDriven()
    solve_warm(warm, [f1, f2, f3], caps)
    solve_warm(warm, [f1, f3], caps)
    solve_warm(warm, [f1, f3, _flow("f4", ["a", "a"])], caps)
    f1.path = ["c", "a"]
    solve_warm(warm, [f1, f3], caps)


def test_link_goes_private_then_shared_then_private():
    caps = {"a": 10.0, "b": 4.0, "c": 10.0}
    f1, f2 = _flow("f1", ["a", "b"]), _flow("f2", ["b", "c"])
    warm = ListDriven()
    assert solve_warm(warm, [f1], caps) == {"f1": 4.0}
    assert solve_warm(warm, [f1, f2], caps) == {"f1": 2.0, "f2": 2.0}
    assert solve_warm(warm, [f1], caps) == {"f1": 4.0}


def test_rerouted_flow_keeps_its_place_ahead_of_newer_flows():
    # f0 leaves l0 and stays on l1, where it must still come before f1:
    # it sets l1's first-appearance key and the order of l1's sums.
    caps = {"l0": 1.0, "l1": 1.0}
    f0 = _flow("f0", ["l0", "l1"], weight=0.2, rate_cap=0.3)
    f1 = _flow("f1", ["l0", "l1"], weight=3.0)
    warm = ListDriven()
    solve_warm(warm, [f0, f1], caps)
    f0.path = ["l1"]
    solve_warm(warm, [f0, f1, _flow("f2", ["l0"], weight=0.2)], caps)


def test_reroute_onto_a_longer_path():
    # f0's new path is longer than the one its keys were sized for.
    caps = {"l0": 2.0, "l1": 3.0, "l2": 6.0, "l3": 3.0, "l4": 1.0}
    f0 = _flow("f0", ["l0"], weight=3.0, rate_cap=1.0)
    f1 = _flow("f1", ["l3", "l4", "l1"], weight=3.0, rate_cap=1.0)
    flows = [f0, f1, _flow("f2", ["l0"], weight=0.1)]
    warm = ListDriven()
    solve_warm(warm, flows, caps)
    f0.path = ["l1", "l3", "l4"]
    assert solve_warm(warm, flows, caps) == {"f0": 0.5, "f1": 0.5, "f2": 2.0}
    f0.path = ["l2"]
    solve_warm(warm, flows, caps)


def test_private_link_tied_with_cap_freezes_first():
    # f0's private link l2 and its cap tie at 3/0.7, as does the shared
    # l0.  The reference numbers l2 before l0 and l0 before the cap, so
    # f0 freezes alone and f1 takes l0's rounded residue: had the cap
    # won the tie, l0 would freeze f0 and f1 together at equal rates.
    caps = {"l0": 6.0, "l1": 6.0, "l2": 3.0}
    flows = [
        _flow("f0", ["l1", "l2", "l0"], weight=0.7, rate_cap=3.0),
        _flow("f1", ["l0"], weight=0.7),
        _flow("f2", ["l1"], rate_cap=1.0),
    ]
    rates = solve_warm(ListDriven(), flows, caps)
    assert rates["f1"] > rates["f0"]
    assert bits(max_min_rates(flows, caps)) == bits(rates)


def test_cap_override_changes_between_solves():
    caps = {"a": 10.0, "b": 8.0}
    flows = [_flow("f1", ["a"], rate_cap=4.0), _flow("f2", ["a", "b"]), _flow("f3", ["b"])]
    warm = ListDriven()
    for overrides in ({"f1": 2.0}, {"f1": 3.0}, {}, {"f2": 1.0, "f3": 0.5}, None):
        solve_warm(warm, flows, caps, overrides)


def test_set_link_capacity_on_private_and_shared_links():
    net = FlowNetwork(metrics=MetricsRegistry())
    net.add_link("a", 10.0)  # only f1 crosses it
    net.add_link("b", 10.0)  # f1 and f2 share it
    net.add_flow(_flow("f1", ["a", "b"]))
    net.add_flow(_flow("f2", ["b"]))
    assert check_network(net) == {"f1": 5.0, "f2": 5.0}
    net.set_link_capacity("a", 2.0)
    assert check_network(net) == {"f1": 2.0, "f2": 8.0}
    net.set_link_capacity("b", 3.0)
    assert check_network(net) == {"f1": 1.5, "f2": 1.5}


def test_cold_and_warm_calls_agree_in_bits_and_key_order():
    caps = {f"l{i}": float(3 + i) for i in range(6)}
    pool = [
        _flow(f"f{i}", [f"l{(i * 7 + j) % 6}" for j in range(1 + i % 3)], weight=1.0 + i % 4 / 2)
        for i in range(24)
    ]
    solve = ListDriven()
    for start in range(0, 16, 2):
        active = pool[start : start + 9]
        warm = solve(active, caps)
        cold = max_min_rates(active, caps)
        assert bits(warm) == bits(cold) == bits(max_min_rates_reference(active, caps))


def test_empty_active_set_releases_every_flow():
    state = FairShareState()
    flow = _flow("f", ["a"])
    max_min_rates([flow, _flow("g", ["a"])], {"a": 1.0}, state=state)
    assert max_min_rates([], {"a": 1.0}, state=state) == {}
    ref = weakref.ref(flow)
    del flow
    gc.collect()
    assert ref() is None
