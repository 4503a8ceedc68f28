"""Tests for the flow network event loop."""

import math

import pytest

from repro.netsim.congestion import CongestionModel
from repro.netsim.flows import Flow, FlowState
from repro.netsim.network import FlowNetwork
from repro.netsim.units import GBPS
from repro.obs.metrics import MetricsRegistry
from tests.netsim.test_properties import bits, reference_rates


def build_net(*links):
    net = FlowNetwork()
    for link_id, cap in links:
        net.add_link(link_id, cap)
    return net


def sanity_check(net):
    """Verify the network's invariants; raises AssertionError on violation.

    No link is oversubscribed by the current rate allocation, and every
    flow's remaining size is a non-negative number.
    """
    rates = net.compute_rates()
    load = {}
    for flow in net.active_flows:
        for link_id in flow.path:
            load[link_id] = load.get(link_id, 0.0) + rates.get(flow.flow_id, 0.0)
    for link_id, total in load.items():
        capacity = net.links[link_id].capacity
        if total > capacity * (1 + 1e-9) + 1e-6:
            raise AssertionError(f"link {link_id!r} oversubscribed: {total} > {capacity}")
    for flow in net.flows.values():
        if flow.remaining < 0 or math.isnan(flow.remaining):
            raise AssertionError(f"flow {flow.flow_id!r} has bad remaining {flow.remaining}")


def test_duplicate_link_rejected():
    net = build_net(("a", GBPS))
    with pytest.raises(ValueError):
        net.add_link("a", GBPS)


def test_flow_on_unknown_link_rejected():
    net = build_net(("a", GBPS))
    with pytest.raises(KeyError):
        net.add_flow(Flow(flow_id="f", path=["missing"], size=1.0))


def test_duplicate_flow_rejected():
    net = build_net(("a", GBPS))
    net.add_flow(Flow(flow_id="f", path=["a"], size=1.0))
    with pytest.raises(ValueError):
        net.add_flow(Flow(flow_id="f", path=["a"], size=1.0))


def test_single_flow_completion_time():
    net = build_net(("a", 10 * GBPS))
    flow = Flow(flow_id="f", path=["a"], size=10 * GBPS)
    net.add_flow(flow)
    net.run()
    assert flow.state is FlowState.COMPLETED
    assert flow.end_time == pytest.approx(1.0)
    assert flow.size / flow.duration == pytest.approx(10 * GBPS)


def test_two_flows_share_then_speed_up():
    # Equal flows on one link: both finish at 2x the solo time.
    net = build_net(("a", 10 * GBPS))
    f1 = Flow(flow_id="f1", path=["a"], size=10 * GBPS)
    f2 = Flow(flow_id="f2", path=["a"], size=10 * GBPS)
    net.add_flow(f1)
    net.add_flow(f2)
    net.run()
    assert f1.end_time == pytest.approx(2.0)
    assert f2.end_time == pytest.approx(2.0)


def test_late_flow_rate_dynamics():
    # f1 runs alone for 1s, then shares for the rest.
    net = build_net(("a", 10 * GBPS))
    f1 = Flow(flow_id="f1", path=["a"], size=15 * GBPS)
    net.add_flow(f1)
    net.schedule(1.0, lambda: net.add_flow(Flow(flow_id="f2", path=["a"], size=5 * GBPS)))
    net.run()
    # After 1s f1 has 5e9 left; shares 5+5 for 1s -> both done at t=2.
    assert f1.end_time == pytest.approx(2.0)


def test_on_complete_callback_chains():
    net = build_net(("a", GBPS))
    order = []

    def chain(flow):
        order.append(flow.flow_id)
        if len(order) < 3:
            net.add_flow(
                Flow(flow_id=f"f{len(order)}", path=["a"], size=GBPS, on_complete=chain)
            )

    net.add_flow(Flow(flow_id="f0", path=["a"], size=GBPS, on_complete=chain))
    net.run()
    assert order == ["f0", "f1", "f2"]
    assert net.now == pytest.approx(3.0)


def test_fail_link_stalls_flow():
    net = build_net(("a", GBPS))
    flow = Flow(flow_id="f", path=["a"], size=10 * GBPS)
    net.add_flow(flow)
    net.schedule(1.0, lambda: net.fail_link("a"))
    net.run(until=5.0)
    assert flow.state is FlowState.STALLED
    assert flow.remaining == pytest.approx(9 * GBPS)
    assert [f for f in net.flows.values() if f.state is FlowState.STALLED] == [flow]


def test_reroute_handler_invoked():
    net = build_net(("a", GBPS), ("b", GBPS))
    flow = Flow(flow_id="f", path=["a"], size=10 * GBPS)
    seen = []

    def handler(link, flows):
        seen.append((link.link_id, list(flows)))
        for affected in flows:
            affected.reroute(["b"])

    net.reroute_handler = handler
    net.add_flow(flow)
    net.schedule(1.0, lambda: net.fail_link("a"))
    net.run()
    assert seen and seen[0][0] == "a"
    assert flow.state is FlowState.COMPLETED
    assert flow.end_time == pytest.approx(10.0)


def test_flow_added_on_failed_link_is_stalled():
    net = build_net(("a", GBPS))
    net.fail_link("a")
    flow = net.add_flow(Flow(flow_id="f", path=["a"], size=1.0))
    assert flow.state is FlowState.STALLED


def test_restore_link_resumes_after_reroute_to_self():
    net = build_net(("a", GBPS))
    flow = Flow(flow_id="f", path=["a"], size=10 * GBPS)
    net.add_flow(flow)
    net.schedule(1.0, lambda: net.fail_link("a"))

    def back_up():
        net.restore_link("a")
        flow.reroute(["a"])

    net.schedule(3.0, back_up)
    net.run()
    # 1s of transfer + 2s stalled + 9s remaining.
    assert flow.end_time == pytest.approx(12.0)


def test_run_until_advances_clock_exactly():
    net = build_net(("a", GBPS))
    net.run(until=7.5)
    assert net.now == 7.5


def test_link_byte_accounting():
    net = build_net(("a", 10 * GBPS), ("b", 10 * GBPS))
    net.meter(["a", "b"])
    net.add_flow(Flow(flow_id="f", path=["a", "b"], size=20 * GBPS))
    net.run()
    assert net.link("a").window_bits == pytest.approx(20 * GBPS)
    assert net.link("b").window_bits == pytest.approx(20 * GBPS)


def test_window_rates():
    net = build_net(("a", 10 * GBPS))
    net.meter(["a"])
    net.add_flow(Flow(flow_id="f", path=["a"], size=10 * GBPS))
    net.reset_link_windows()
    net.run(until=0.5)
    assert net.link("a").window_rate(0.5) == pytest.approx(10 * GBPS)


def test_weights_respected_in_network():
    net = build_net(("a", 9 * GBPS))
    f1 = Flow(flow_id="f1", path=["a"], size=3 * GBPS, weight=1.0)
    f2 = Flow(flow_id="f2", path=["a"], size=6 * GBPS, weight=2.0)
    net.add_flow(f1)
    net.add_flow(f2)
    net.run()
    # Rates 3 and 6 Gbps; both complete at t=1.
    assert f1.end_time == pytest.approx(1.0)
    assert f2.end_time == pytest.approx(1.0)


def test_sanity_check_passes_on_healthy_network():
    net = build_net(("a", GBPS), ("b", GBPS))
    net.add_flow(Flow(flow_id="f", path=["a", "b"], size=GBPS))
    sanity_check(net)


def test_timers_and_flows_interleave():
    net = build_net(("a", GBPS))
    events = []
    net.add_flow(Flow(flow_id="f", path=["a"], size=2 * GBPS, on_complete=lambda f: events.append("flow")))
    net.schedule(1.0, lambda: events.append("timer1"))
    net.schedule(3.0, lambda: events.append("timer3"))
    net.run()
    assert events == ["timer1", "flow", "timer3"]


def test_new_flow_id_unique():
    net = build_net(("a", GBPS))
    ids = {net.new_flow_id() for _ in range(100)}
    assert len(ids) == 100


def test_schedule_in_past_rejected():
    net = build_net(("a", GBPS))
    net.schedule(1.0, lambda: None)
    net.run(until=2.0)
    with pytest.raises(ValueError):
        net.schedule_at(1.0, lambda: None)


def test_negative_delay_rejected():
    net = build_net(("a", GBPS))
    with pytest.raises(ValueError):
        net.schedule(-0.5, lambda: None)


def test_weight_change_mid_flight_shifts_rates():
    net = build_net(("a", 10 * GBPS))
    f1 = Flow(flow_id="f1", path=["a"], size=100 * GBPS)
    f2 = Flow(flow_id="f2", path=["a"], size=100 * GBPS)
    net.add_flow(f1)
    net.add_flow(f2)

    def boost():
        f1.weight = 3.0

    net.schedule(1.0, boost)
    net.run(until=2.0)
    rates = net.compute_rates()
    assert rates["f1"] == pytest.approx(7.5 * GBPS)
    assert rates["f2"] == pytest.approx(2.5 * GBPS)


def test_remaining_transfer_moves_between_flows():
    # Moving bits between flows (the LB primitive) conserves totals.
    net = build_net(("a", GBPS), ("b", GBPS))
    f1 = Flow(flow_id="f1", path=["a"], size=10 * GBPS)
    f2 = Flow(flow_id="f2", path=["b"], size=10 * GBPS)
    net.add_flow(f1)
    net.add_flow(f2)
    net.run(until=1.0)
    moved = f1.remaining / 2
    f1.remaining -= moved
    f2.remaining += moved
    net.run()
    assert f1.state is FlowState.COMPLETED
    assert f2.state is FlowState.COMPLETED
    assert f2.end_time > f1.end_time


def test_run_rejects_reentrant_calls():
    network = FlowNetwork()
    errors = []

    def reenter():
        try:
            network.run(until=5.0)
        except RuntimeError as exc:
            errors.append(str(exc))

    network.schedule(1.0, reenter)
    network.run(until=2.0)
    assert len(errors) == 1
    assert "re-entered" in errors[0]
    # The guard resets: a fresh top-level run() works afterwards.
    network.schedule(1.0, lambda: None)
    network.run(until=5.0)


def test_set_link_capacity_changes_rates_mid_run():
    net = build_net(("a", 10 * GBPS))
    flow = Flow(flow_id="f", path=["a"], size=20 * GBPS)
    net.add_flow(flow)
    net.schedule(1.0, lambda: net.set_link_capacity("a", 5 * GBPS))
    net.run()
    # 10 Gb in the first second, the other 10 Gb at 5 Gbps.
    assert net.link("a").capacity == 5 * GBPS
    assert flow.end_time == pytest.approx(3.0)


def test_set_link_capacity_rejects_nonpositive():
    net = build_net(("a", GBPS))
    with pytest.raises(ValueError):
        net.set_link_capacity("a", 0.0)
    assert net.link("a").capacity == GBPS


def test_link_failed_behind_the_network_pauses_its_flows():
    # ClusterTopology.disable_spine fails links directly: the flows stay
    # ACTIVE but carry nothing until the link is back.
    net = build_net(("a", GBPS))
    flow = Flow(flow_id="f", path=["a"], size=2 * GBPS)
    net.add_flow(flow)
    net.schedule(1.0, net.link("a").fail)
    net.schedule(4.0, net.link("a").restore)
    net.run(until=2.0)
    assert flow.state is FlowState.ACTIVE
    assert net.active_flows == []
    assert net.compute_rates() == {}
    net.run()
    assert flow.end_time == pytest.approx(5.0)


def count_completion_scans(net):
    """Give ``net`` a flow table that records the walks over it made from
    inside ``_fire_completions``; returns that record."""
    scans = []
    inside = []

    class Flows(dict):
        def values(self):
            if inside:
                scans.append(1)
            return super().values()

    net.flows = Flows(net.flows)
    fire = net._fire_completions

    def counted():
        inside.append(1)
        try:
            fire()
        finally:
            inside.pop()

    net._fire_completions = counted
    return scans


def test_flow_on_a_failed_link_is_blocked_and_unblocked_with_no_scan():
    # "f" crosses "a", which fails silently at t=1 and is back at t=3.
    net = build_net(("a", 10 * GBPS), ("b", 10 * GBPS))
    scans = count_completion_scans(net)
    f = net.add_flow(Flow(flow_id="f", path=["a", "b"], size=20 * GBPS))
    g = net.add_flow(Flow(flow_id="g", path=["b"], size=100 * GBPS))
    net.schedule(1.0, net.link("a").fail)
    net.schedule(3.0, net.link("a").restore)
    net.schedule(3.0, lambda: None)
    net.run(until=2.0)
    assert f.state is FlowState.ACTIVE and f.rate == 0.0
    assert net._blocked == {"f": 1}
    assert net.active_flows == [g]
    assert net.compute_rates() == {"g": 10 * GBPS}
    net.run(until=4.0)
    assert net._blocked == {}
    assert net.active_flows == [f, g]
    net.run()
    # 5 Gb before the failure, the other 15 Gb at 5 Gbps after t=3.
    assert f.end_time == pytest.approx(6.0)
    assert [flow.flow_id for flow in net.completed_flows] == ["f", "g"]
    assert scans == []


def test_blocked_flow_emptied_by_a_caller_completes():
    net = build_net(("a", 10 * GBPS), ("b", 10 * GBPS))
    f = net.add_flow(Flow(flow_id="f", path=["a"], size=20 * GBPS))
    g = net.add_flow(Flow(flow_id="g", path=["b"], size=20 * GBPS))
    net.schedule(0.5, net.link("a").fail)

    def take_remaining():
        f.remaining = 0.0

    net.schedule(1.0, take_remaining)
    net.run(until=1.5)
    # Found at the next event: the end of the run.
    assert f.state is FlowState.COMPLETED
    assert f.end_time == 1.5
    assert net._blocked == {}
    assert g.state is FlowState.ACTIVE


@pytest.fixture
def solve_count(monkeypatch):
    """Count the max-min solves the network runs."""
    from repro.netsim import network

    calls = []
    solve = network.max_min_rates

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(network, "max_min_rates", counting)
    return lambda: len(calls)


def test_noop_timers_over_fixed_flows_cost_one_solve(solve_count):
    net = build_net(("a", 10 * GBPS), ("b", 10 * GBPS))
    net.add_flow(Flow(flow_id="f1", path=["a", "b"], size=1000 * GBPS))
    net.add_flow(Flow(flow_id="f2", path=["b"], size=1000 * GBPS, weight=3.0))
    for i in range(50):
        net.schedule(0.1 * (i + 1), lambda: None)
    net.run(until=10.0)
    assert net.compute_rates() == {"f1": 2.5 * GBPS, "f2": 7.5 * GBPS}
    assert solve_count() == 1


@pytest.mark.parametrize(
    "change, expected",
    [
        (lambda net, f: setattr(f, "weight", 3.0), {"f": 7.5 * GBPS, "g": 2.5 * GBPS}),
        (lambda net, f: setattr(f, "path", ["b"]), {"f": 10 * GBPS, "g": 10 * GBPS}),
        (lambda net, f: f.reroute(["b"]), {"f": 10 * GBPS, "g": 10 * GBPS}),
        (lambda net, f: net.link("a").fail(), {}),
        (lambda net, f: net.set_link_capacity("a", 4 * GBPS), {"f": 2 * GBPS, "g": 2 * GBPS}),
    ],
    ids=["weight", "path", "reroute", "link_fail", "capacity"],
)
def test_every_solver_input_change_forces_a_solve(solve_count, change, expected):
    net = build_net(("a", 10 * GBPS), ("b", 10 * GBPS))
    flow = Flow(flow_id="f", path=["a"], size=GBPS)
    net.add_flow(flow)
    net.add_flow(Flow(flow_id="g", path=["a"], size=GBPS))
    assert net.compute_rates() == {"f": 5 * GBPS, "g": 5 * GBPS}
    net.compute_rates()
    assert solve_count() == 1
    change(net, flow)
    assert net.compute_rates() == expected
    assert solve_count() == 2


def test_flow_emptied_by_a_caller_completes_with_no_time_passing():
    # The step after the timer advances no time, so no pass over the
    # active flows sees the emptied flow: the completion scan must.
    net = build_net(("a", 10 * GBPS))
    f = Flow(flow_id="f", path=["a"], size=10 * GBPS)
    g = Flow(flow_id="g", path=["a"], size=10 * GBPS)
    net.add_flow(f)
    net.add_flow(g)

    def take_remaining():
        f.remaining = 0.0
        net.schedule(0.0, check_completed)

    def check_completed():
        # Fires at the next event, still at t=0.5; raising here also
        # stops a loop that would otherwise step by zero forever.
        assert f.state is FlowState.COMPLETED

    net.schedule(0.5, take_remaining)
    net.run(until=0.75)
    assert f.state is FlowState.COMPLETED
    assert f.end_time == 0.5
    assert net.compute_rates() == {"g": 10 * GBPS}


@pytest.mark.parametrize(
    "move",
    [
        lambda net, f: f.reroute(["c", "d"]),
        lambda net, f: setattr(f, "path", ["c", "d"]),
        lambda net, f: (net.fail_link("a"), f.reroute(["c", "d"])),
    ],
    ids=["reroute", "path", "stalled_reroute"],
)
def test_bits_follow_a_replaced_path(move):
    net = build_net(("a", GBPS), ("b", GBPS), ("c", GBPS), ("d", GBPS))
    net.meter("abcd")
    flow = Flow(flow_id="f", path=["a", "b"], size=4 * GBPS)
    net.add_flow(flow)
    net.run(until=1.0)
    assert [net.link(l).window_bits for l in "abcd"] == [GBPS, GBPS, 0.0, 0.0]
    move(net, flow)
    net.reset_link_windows()
    net.run(until=2.0)
    assert [net.link(l).window_bits for l in "abcd"] == [0.0, 0.0, GBPS, GBPS]


def test_completed_flows_leave_no_resolved_links():
    net = build_net(("a", 10 * GBPS), ("b", 10 * GBPS))
    launched = []

    def launch(_done=None):
        if len(launched) < 200:
            flow = Flow(
                flow_id=f"f{len(launched)}",
                path=["a", "b"] if len(launched) % 2 else ["b"],
                size=GBPS * (1 + len(launched) % 3),
                on_complete=launch,
            )
            launched.append(flow)
            net.add_flow(flow)
        assert set(net._resolved) == set(net.flows)
        assert set(net._crossing["a"]) | set(net._crossing["b"]) == set(net.flows)

    for _ in range(4):
        launch()
    net.run()
    assert len(net.completed_flows) == 200
    assert net._resolved == {}
    assert net._crossing == {"a": {}, "b": {}}


# ----------------------------------------------------------------------
# Canonical order and the memo of solved sets
# ----------------------------------------------------------------------
def checked_rates(net):
    """``compute_rates`` against the reference over the canonical order."""
    rates = net.compute_rates()
    assert bits(rates) == bits(reference_rates(net))
    return rates


def signature_of(net, flow):
    checked_rates(net)
    return net._resolved[flow.flow_id][4]


def test_capacity_change_between_two_solves_of_one_set(solve_count):
    net = build_net(("a", 10 * GBPS), ("b", 10 * GBPS))
    net.add_flow(Flow(flow_id="f", path=["a", "b"], size=GBPS))
    net.add_flow(Flow(flow_id="g", path=["b"], size=GBPS))
    assert checked_rates(net) == {"f": 5 * GBPS, "g": 5 * GBPS}
    net.set_link_capacity("b", 4 * GBPS)
    assert checked_rates(net) == {"f": 2 * GBPS, "g": 2 * GBPS}
    net.set_link_capacity("b", 10 * GBPS)
    assert checked_rates(net) == {"f": 5 * GBPS, "g": 5 * GBPS}
    assert solve_count() == 3


def test_congestion_overrides_bypass_the_memo(solve_count):
    net = FlowNetwork(congestion=CongestionModel(), metrics=MetricsRegistry())
    net.add_link("a", 10 * GBPS)
    net.add_flow(Flow(flow_id="f", path=["a"], size=GBPS))
    net.add_flow(Flow(flow_id="g", path=["a"], size=GBPS))
    assert checked_rates(net) == {"f": 5 * GBPS, "g": 5 * GBPS}
    assert solve_count() == 1
    net.congestion._throttle["f"] = 0.2
    for _ in range(2):
        assert checked_rates(net) == {"f": 2 * GBPS, "g": 8 * GBPS}
    assert solve_count() == 3
    # With no throttle left, the set's first solve comes from the memo.
    del net.congestion._throttle["f"]
    assert checked_rates(net) == {"f": 5 * GBPS, "g": 5 * GBPS}
    assert solve_count() == 3


def test_weight_change_or_reroute_gives_a_new_signature():
    net = build_net(("a", 10 * GBPS), ("b", 10 * GBPS))
    f = net.add_flow(Flow(flow_id="f", path=["a"], size=GBPS))
    g = net.add_flow(Flow(flow_id="g", path=["a"], size=GBPS))
    shared = signature_of(net, g)
    assert signature_of(net, f) == shared
    f.weight = 3.0
    weighted = signature_of(net, f)
    assert net.compute_rates() == {"g": 2.5 * GBPS, "f": 7.5 * GBPS}
    f.reroute(["b"])
    rerouted = signature_of(net, f)
    assert len({shared, weighted, rerouted}) == 3
    # Back to g's path and weight: back to g's signature, interned once.
    f.weight = 1.0
    f.path = ["a"]
    assert signature_of(net, f) == shared
    assert net.compute_rates() == {"f": 5 * GBPS, "g": 5 * GBPS}


def test_memo_and_signature_table_stay_bounded(monkeypatch):
    # A dynamic load balancer keeps re-weighting flows, so new
    # signatures never stop coming; ring steps keep re-posting flows.
    monkeypatch.setattr(FlowNetwork, "MEMO_SIZE", 8)
    monkeypatch.setattr(FlowNetwork, "SIGNATURE_LIMIT", 32)
    net = build_net(("a", 10 * GBPS), ("b", 10 * GBPS), ("c", 10 * GBPS))
    paths = (["a", "b"], ["b"], ["c", "a"], ["a"])
    posted = [0]

    def repost(done=None):
        path = paths[posted[0] % len(paths)]
        posted[0] += 1
        net.add_flow(
            Flow(flow_id=f"f{posted[0]}", path=path, size=GBPS * (1 + posted[0] % 3),
                 on_complete=repost)
        )

    for _ in range(6):
        repost()
    memo_sizes, table_sizes = [], []
    for step in range(300):
        live = list(net.flows.values())
        live[step % len(live)].weight = 1.0 + step % 13 / 4
        net.run(until=net.now + 0.05)
        checked_rates(net)
        memo_sizes.append(len(net._memo))
        table_sizes.append(len(net._signature_ids))
        assert table_sizes[-1] <= FlowNetwork.SIGNATURE_LIMIT + len(net.flows)
    assert max(memo_sizes) == FlowNetwork.MEMO_SIZE
    assert max(table_sizes) > FlowNetwork.SIGNATURE_LIMIT > min(table_sizes[100:])
