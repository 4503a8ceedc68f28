"""Tests for the weighted max-min fair solver."""

import gc
import weakref

import pytest

from repro.netsim.fairness import FairShareState, max_min_rates, max_min_rates_reference
from repro.netsim.flows import Flow
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry


def _flow(fid, path, weight=1.0, rate_cap=None):
    return Flow(flow_id=fid, path=path, size=1.0, weight=weight, rate_cap=rate_cap)


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


def solve_warm(state, flows, caps, overrides=None):
    """Re-solve from ``state`` and check it against the reference."""
    rates = max_min_rates(flows, caps, cap_overrides=overrides, state=state)
    assert bits(rates) == bits(max_min_rates_reference(flows, caps, cap_overrides=overrides))
    return rates


def check_network(net):
    """The network's rates against a reference solve over its active set."""
    capacities = {link_id: link.capacity for link_id, link in net.links.items()}
    reference = max_min_rates_reference(net.active_flows, capacities)
    rates = net.compute_rates()
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
    state = FairShareState()
    solve_warm(state, [f1, f2, f3], caps)
    solve_warm(state, [f1, f3], caps)
    solve_warm(state, [f1, f2, f3], caps)
    solve_warm(state, [f3, f1], caps)


def test_path_listing_a_link_twice():
    caps = {"a": 9.0, "b": 4.0, "c": 7.0}
    f1 = _flow("f1", ["a", "b", "a"], weight=0.5)
    f2 = _flow("f2", ["a"])
    f3 = _flow("f3", ["b", "c"], rate_cap=1.5)
    assert bits(max_min_rates([f1, f2, f3], caps)) == bits(
        max_min_rates_reference([f1, f2, f3], caps)
    )
    state = FairShareState()
    solve_warm(state, [f1, f2, f3], caps)
    solve_warm(state, [f1, f3], caps)
    solve_warm(state, [f1, f3, _flow("f4", ["a", "a"])], caps)
    f1.path = ["c", "a"]
    solve_warm(state, [f1, f3], caps)


def test_link_goes_private_then_shared_then_private():
    caps = {"a": 10.0, "b": 4.0, "c": 10.0}
    f1, f2 = _flow("f1", ["a", "b"]), _flow("f2", ["b", "c"])
    state = FairShareState()
    assert solve_warm(state, [f1], caps) == {"f1": 4.0}
    assert solve_warm(state, [f1, f2], caps) == {"f1": 2.0, "f2": 2.0}
    assert solve_warm(state, [f1], caps) == {"f1": 4.0}


def test_rerouted_flow_keeps_its_place_ahead_of_newer_flows():
    # f0 leaves l0 and stays on l1, where it must still come before f1:
    # it sets l1's first-appearance key and the order of l1's sums.
    caps = {"l0": 1.0, "l1": 1.0}
    f0 = _flow("f0", ["l0", "l1"], weight=0.2, rate_cap=0.3)
    f1 = _flow("f1", ["l0", "l1"], weight=3.0)
    state = FairShareState()
    solve_warm(state, [f0, f1], caps)
    f0.path = ["l1"]
    solve_warm(state, [f0, f1, _flow("f2", ["l0"], weight=0.2)], caps)


def test_reroute_onto_a_longer_path():
    # f0's new path is longer than the one its keys were sized for.
    caps = {"l0": 2.0, "l1": 3.0, "l2": 6.0, "l3": 3.0, "l4": 1.0}
    f0 = _flow("f0", ["l0"], weight=3.0, rate_cap=1.0)
    f1 = _flow("f1", ["l3", "l4", "l1"], weight=3.0, rate_cap=1.0)
    flows = [f0, f1, _flow("f2", ["l0"], weight=0.1)]
    state = FairShareState()
    solve_warm(state, flows, caps)
    f0.path = ["l1", "l3", "l4"]
    assert solve_warm(state, flows, caps) == {"f0": 0.5, "f1": 0.5, "f2": 2.0}
    f0.path = ["l2"]
    solve_warm(state, flows, caps)


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
    rates = solve_warm(FairShareState(), flows, caps)
    assert rates["f1"] > rates["f0"]
    assert bits(max_min_rates(flows, caps)) == bits(rates)


def test_cap_override_changes_between_solves():
    caps = {"a": 10.0, "b": 8.0}
    flows = [_flow("f1", ["a"], rate_cap=4.0), _flow("f2", ["a", "b"]), _flow("f3", ["b"])]
    state = FairShareState()
    for overrides in ({"f1": 2.0}, {"f1": 3.0}, {}, {"f2": 1.0, "f3": 0.5}, None):
        solve_warm(state, flows, caps, overrides)


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
    state = FairShareState()
    for start in range(0, 16, 2):
        active = pool[start : start + 9]
        warm = max_min_rates(active, caps, state=state)
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
