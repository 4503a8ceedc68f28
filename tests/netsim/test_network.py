"""Tests for the flow network event loop."""

import pytest

from repro.netsim.flows import Flow, FlowState
from repro.netsim.network import FlowNetwork
from repro.netsim.units import GBPS


def build_net(*links):
    net = FlowNetwork()
    for link_id, cap in links:
        net.add_link(link_id, cap)
    return net


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
    assert flow.mean_rate == pytest.approx(10 * GBPS)


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
    assert net.stalled_flows() == [flow]


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
    net.add_flow(Flow(flow_id="f", path=["a", "b"], size=20 * GBPS))
    net.run()
    assert net.link("a").bits_carried == pytest.approx(20 * GBPS)
    assert net.link("b").bits_carried == pytest.approx(20 * GBPS)


def test_window_rates():
    net = build_net(("a", 10 * GBPS))
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
    net.sanity_check()


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
