"""A live flow reports its own changes to the network that holds it.

Writing a live flow's ``path``, ``weight`` or ``rate_cap``, or rerouting
it, reaches its :class:`FlowNetwork` at once, which keeps its active
structures up to date and hands its solver state only what changed.
"""

import pytest

from repro.netsim import network as network_module
from repro.netsim.fairness import max_min_rates
from repro.netsim.flows import Flow, FlowState
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry
from tests.netsim.test_fairness import bits, canonical_order

LINKS = {"a": 10.0, "b": 6.0, "c": 4.0, "d": 9.0, "e": 7.0}


def build():
    """Five links and four flows of distinct signatures, solved once."""
    net = FlowNetwork(metrics=MetricsRegistry())
    for link_id, capacity in LINKS.items():
        net.add_link(link_id, capacity)
    net.add_flow(Flow(flow_id="f0", path=["a", "b"], size=50.0))
    net.add_flow(Flow(flow_id="f1", path=["b", "c"], size=50.0, weight=2.0))
    net.add_flow(Flow(flow_id="f2", path=["c", "d", "e"], size=50.0, rate_cap=1.5))
    net.add_flow(Flow(flow_id="f3", path=["a", "e"], size=50.0, weight=0.5))
    net.run(until=0.5)
    return net


def cold_rates(net):
    """A cold solve over the network's active flows in canonical order."""
    canonical = canonical_order(net, net.active_flows)
    assert net._canonical == canonical
    capacities = {link_id: link.capacity for link_id, link in net.links.items()}
    return max_min_rates(canonical, capacities)


def reroute_stalled(net, flow):
    net.fail_link("b")
    assert flow.state is FlowState.STALLED
    net.compute_rates()
    flow.reroute(["d", "a"])
    assert flow.state is FlowState.ACTIVE


@pytest.mark.parametrize(
    "write",
    [
        lambda net, flow: setattr(flow, "path", ["d", "e"]),
        lambda net, flow: flow.reroute(["c", "a"]),
        reroute_stalled,
        lambda net, flow: setattr(flow, "weight", 3.0),
        lambda net, flow: setattr(flow, "rate_cap", 0.75),
    ],
    ids=["path", "reroute_active", "reroute_stalled", "weight", "rate_cap"],
)
def test_each_write_gives_the_cold_solve_bit_for_bit(write):
    net = build()
    assert bits(net.compute_rates()) == bits(cold_rates(net))
    write(net, net.flows["f1"])
    assert bits(net.compute_rates()) == bits(cold_rates(net))
    net.run(until=1.0)
    assert bits(net.compute_rates()) == bits(cold_rates(net))


@pytest.fixture
def solves(monkeypatch):
    """Count the solver calls the network makes."""
    calls = []
    solve = network_module.max_min_rates

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(network_module, "max_min_rates", counting)
    return calls


def write_everything(flow):
    flow.path = ["e"]
    flow.weight = 4.0
    flow.rate_cap = 0.5
    flow.reroute(["d"])


def test_writes_to_a_flow_not_yet_added_reach_no_network(solves):
    net = build()
    rates = net.compute_rates()
    flow = Flow(flow_id="new", path=["a"], size=1.0)
    write_everything(flow)
    assert net.compute_rates() is rates
    assert "new" not in net._resolved
    net.add_flow(flow)
    assert flow.path == ["d"] and flow.weight == 4.0 and flow.rate_cap == 0.5
    assert bits(net.compute_rates()) == bits(cold_rates(net))


def test_writes_to_a_completed_flow_reach_no_network(solves):
    net = build()
    net.add_flow(Flow(flow_id="short", path=["a"], size=1.0))
    net.run(until=1.0)
    short = net.completed_flows[-1]
    assert short.flow_id == "short"
    rates = net.compute_rates()
    calls = len(solves)
    write_everything(short)
    assert net.compute_rates() is rates
    assert len(solves) == calls
    assert "short" not in net._resolved
    assert all("short" not in flows for flows in net._crossing.values())


class Walks:
    """Counts the walks over a flow table or a member list."""

    def __init__(self):
        self.count = 0

    def dict(self, table):
        walks = self

        class Table(dict):
            def __iter__(self):
                walks.count += 1
                return super().__iter__()

            def values(self):
                walks.count += 1
                return super().values()

            def items(self):
                walks.count += 1
                return super().items()

            def keys(self):
                walks.count += 1
                return super().keys()

        return Table(table)

    def list(self, members):
        walks = self

        class Members(list):
            def __iter__(self):
                walks.count += 1
                return super().__iter__()

        return Members(members)


def test_a_one_flow_change_walks_no_flow_table_and_no_member_list(solves):
    net = FlowNetwork(metrics=MetricsRegistry())
    for link_id in range(12):
        net.add_link(link_id, 10.0 + link_id)
    for i in range(40):
        path = [i % 12, (i * 5 + 1) % 12, (i * 7 + 3) % 12]
        net.add_flow(Flow(flow_id=i, path=list(dict.fromkeys(path)), size=1e3, weight=1 + i / 8))
    net.compute_rates()
    walks = Walks()
    net.flows = walks.dict(net.flows)
    # The state's update may not walk its members; the fill walks them
    # to hand out the rates, so only the update is counted.
    state = net._fair_share
    apply = state._apply

    def counted_apply(*args):
        state._members = walks.list(state._members)
        try:
            return apply(*args)
        finally:
            state._members = state._members[:]

    state._apply = counted_apply
    calls = len(solves)
    net.flows[17].weight = 9.0
    rates = net.compute_rates()
    assert len(solves) == calls + 1
    assert walks.count == 0
    net.flows = dict(net.flows)
    assert bits(rates) == bits(cold_rates(net))


def test_fail_link_returns_network_order_after_a_reroute_onto_the_link():
    net = FlowNetwork(metrics=MetricsRegistry())
    for link_id in "abc":
        net.add_link(link_id, 10.0)
    first = net.add_flow(Flow(flow_id="first", path=["b"], size=10.0))
    later = [
        net.add_flow(Flow(flow_id=f"later{i}", path=["a", "c"], size=10.0)) for i in range(3)
    ]
    first.reroute(["c", "a"])
    stalled = net.add_flow(Flow(flow_id="stalled", path=["b"], size=10.0))
    net.fail_link("b")
    assert stalled.state is FlowState.STALLED
    stalled.path = ["a"]
    assert stalled.state is FlowState.STALLED
    affected = net.fail_link("a")
    assert affected == [first, *later]
    assert all(flow.state is FlowState.STALLED for flow in affected)


def test_signatures_written_between_solves_are_numbered_in_network_order():
    # The writes come in reverse network order; the ids must not, as a
    # walk over the flows in network order would have numbered them.
    net = build()
    f0, f1, f2 = net.flows["f0"], net.flows["f1"], net.flows["f2"]
    f2.weight = 5.0
    f1.path = ["e", "d"]
    f0.rate_cap = 2.5
    net.compute_rates()
    ids = [net._resolved[flow.flow_id][4] for flow in (f0, f1, f2)]
    assert ids == sorted(ids) and ids[0] == max(net._signature_ids.values()) - 2
