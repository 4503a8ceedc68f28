"""Property-based tests (hypothesis) for the netsim invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.netsim.congestion import CongestionModel
from repro.netsim.fairness import FairShareState, max_min_rates, max_min_rates_reference
from repro.netsim.flows import Flow, FlowState
from repro.netsim.network import _COMPLETION_REL_EPS, FlowNetwork
from repro.obs.metrics import MetricsRegistry

LINKS = ["a", "b", "c", "d", "e"]


@st.composite
def fairness_instance(draw):
    num_links = draw(st.integers(min_value=1, max_value=5))
    links = LINKS[:num_links]
    caps = {
        link: draw(st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
        for link in links
    }
    num_flows = draw(st.integers(min_value=1, max_value=12))
    flows = []
    for i in range(num_flows):
        path = draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=num_links, unique=True)
        )
        weight = draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        cap = draw(st.one_of(st.none(), st.floats(min_value=0.5, max_value=50.0)))
        flows.append(Flow(flow_id=f"f{i}", path=path, size=1.0, weight=weight, rate_cap=cap))
    return flows, caps


@given(fairness_instance())
@settings(max_examples=200, deadline=None)
def test_rates_never_oversubscribe_links(instance):
    flows, caps = instance
    rates = max_min_rates(flows, caps)
    load = {link: 0.0 for link in caps}
    for flow in flows:
        assert rates[flow.flow_id] >= 0.0
        for link in flow.path:
            load[link] += rates[flow.flow_id]
    for link, total in load.items():
        assert total <= caps[link] * (1 + 1e-6) + 1e-9


@given(fairness_instance())
@settings(max_examples=200, deadline=None)
def test_rates_respect_caps(instance):
    flows, caps = instance
    rates = max_min_rates(flows, caps)
    for flow in flows:
        if flow.rate_cap is not None:
            assert rates[flow.flow_id] <= flow.rate_cap * (1 + 1e-6)


@given(fairness_instance())
@settings(max_examples=200, deadline=None)
def test_every_flow_is_bottlenecked_somewhere(instance):
    # Max-min optimality: each flow crosses a saturated link or runs at
    # its own cap — otherwise its rate could be raised.
    flows, caps = instance
    rates = max_min_rates(flows, caps)
    load = {link: 0.0 for link in caps}
    for flow in flows:
        for link in flow.path:
            load[link] += rates[flow.flow_id]
    for flow in flows:
        rate = rates[flow.flow_id]
        at_cap = flow.rate_cap is not None and rate >= flow.rate_cap * (1 - 1e-6)
        saturated = any(load[link] >= caps[link] * (1 - 1e-6) for link in flow.path)
        assert at_cap or saturated


@given(
    st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=1, max_size=8),
    st.floats(min_value=1.0, max_value=50.0),
)
@settings(max_examples=100, deadline=None)
def test_network_conserves_bytes(sizes, capacity):
    net = FlowNetwork()
    net.add_link("l", capacity)
    flows = [
        Flow(flow_id=f"f{i}", path=["l"], size=size) for i, size in enumerate(sizes)
    ]
    for flow in flows:
        net.add_flow(flow)
    net.run()
    total = sum(sizes)
    assert net.link("l").bits_carried <= total * (1 + 1e-6)
    assert net.link("l").bits_carried >= total * (1 - 1e-6)
    for flow in flows:
        assert flow.remaining == 0.0
        assert not math.isnan(flow.end_time)


@given(
    st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=2, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_completion_order_matches_size_order_on_shared_link(sizes):
    # Equal-weight flows on one link finish in size order.
    net = FlowNetwork()
    net.add_link("l", 10.0)
    flows = [
        Flow(flow_id=f"f{i}", path=["l"], size=size) for i, size in enumerate(sizes)
    ]
    for flow in flows:
        net.add_flow(flow)
    net.run()
    by_size = sorted(flows, key=lambda f: f.size)
    ends = [f.end_time for f in by_size]
    assert ends == sorted(ends)


# ----------------------------------------------------------------------
# Differential properties: the solver, cold and warm, and the cached
# network state against the vectorized reference solver and a
# from-scratch recount.
# ----------------------------------------------------------------------
def bits(rates):
    """Rates as (flow id, exact float) pairs, in dict order."""
    return [(flow_id, rate.hex()) for flow_id, rate in rates.items()]


@st.composite
def tied_instance(draw):
    # Integer capacities and mostly-unit weights make many links tie for
    # the bottleneck, which is where the pop order has to match argmin.
    num_links = draw(st.integers(min_value=1, max_value=6))
    links = [f"l{i}" for i in range(num_links)]
    caps = {link: float(draw(st.integers(min_value=1, max_value=6))) for link in links}
    weight = st.one_of(
        st.just(1.0), st.sampled_from([0.5, 2.0, 3.0]), st.floats(min_value=0.1, max_value=5.0)
    )
    rate_cap = st.one_of(
        st.none(), st.integers(min_value=1, max_value=4).map(float), st.floats(0.1, 10.0)
    )
    flows = []
    overrides = {}
    for i in range(draw(st.integers(min_value=1, max_value=14))):
        path = draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=num_links, unique=True)
        )
        flows.append(
            Flow(flow_id=f"f{i}", path=path, size=1.0, weight=draw(weight), rate_cap=draw(rate_cap))
        )
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            overrides[f"f{i}"] = draw(st.sampled_from([1.0, 2.0, 0.25]) | st.floats(0.1, 10.0))
    return flows, caps, overrides


@given(tied_instance())
@settings(max_examples=300, deadline=None)
def test_heap_solver_matches_reference_bit_for_bit(instance):
    flows, caps, overrides = instance
    fast = max_min_rates(flows, caps, cap_overrides=overrides)
    reference = max_min_rates_reference(flows, caps, cap_overrides=overrides)
    assert bits(fast) == bits(reference)


state_op = st.one_of(
    st.tuples(
        st.just("add"),
        st.lists(st.sampled_from(LINKS), min_size=1, max_size=5, unique=True),
        st.sampled_from([1.0, 0.1, 0.2, 0.3, 0.7, 3.0]),
        st.sampled_from([None, None, 1.0, 0.3]),
    ),
    st.tuples(st.just("drop"), st.integers(0, 63)),
    st.tuples(
        st.just("reroute"),
        st.integers(0, 63),
        st.lists(st.sampled_from(LINKS), min_size=1, max_size=5, unique=True),
    ),
    st.tuples(st.just("weight"), st.integers(0, 63), st.sampled_from([0.1, 0.7, 1.0, 3.0])),
    st.tuples(st.just("capacity"), st.sampled_from(LINKS), st.sampled_from([1.0, 2.0, 3.0])),
)


@given(st.lists(state_op, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_state_churn_matches_reference(ops):
    # Solver-level churn with tie-prone capacities and weights: flows
    # come, go, reroute onto shorter or longer paths and change weight,
    # and links change capacity, between warm solves of one state.
    caps = {link: 3.0 for link in LINKS}
    state = FairShareState()
    active = []
    for serial, (kind, *args) in enumerate(ops):
        if kind == "add" or not active:
            path, weight, rate_cap = args if kind == "add" else (["a"], 1.0, None)
            active.append(
                Flow(flow_id=f"f{serial}", path=path, size=1.0, weight=weight, rate_cap=rate_cap)
            )
        elif kind == "drop":
            active.pop(args[0] % len(active))
        elif kind == "reroute":
            active[args[0] % len(active)].path = args[1]
        elif kind == "weight":
            active[args[0] % len(active)].weight = args[1]
        else:
            caps[args[0]] = args[1]
            state.capacity_changed(args[0])
        rates = max_min_rates(active, caps, state=state)
        assert bits(rates) == bits(max_min_rates_reference(active, caps))


def reference_active(net):
    """The active set recomputed from scratch: ACTIVE and every link up."""
    return [
        flow
        for flow in net.flows.values()
        if flow.state == FlowState.ACTIVE and all(net.links[l].is_up for l in flow.path)
    ]


def reference_rates(net):
    active = reference_active(net)
    capacities = {link_id: link.capacity for link_id, link in net.links.items()}
    overrides = {}
    if net.congestion is not None:
        for flow in active:
            throttle = net.congestion.throttle_of(flow)
            if throttle < 1.0:
                base = flow.rate_cap
                if base is None:
                    base = min(capacities[l] for l in flow.path)
                overrides[flow.flow_id] = throttle * base
    return max_min_rates_reference(active, capacities, cap_overrides=overrides)


class ShadowNetwork(FlowNetwork):
    """A network that re-derives every solve and byte counter the slow way.

    Each interval the loop advances by is checked against a reference
    solve over an active set recomputed from scratch, and the shadow adds
    each active flow's bits to every link of its path, one ``+=`` per
    incidence in flow order, as per-link ``Link.account`` calls would.
    Completions must be exactly the ACTIVE flows with no bits left.
    """

    def __init__(self, congestion):
        super().__init__(congestion=congestion, metrics=MetricsRegistry())
        self.expected_bits = {}

    def _carry(self, path, amount):
        for link_id in path:
            self.expected_bits[link_id] = self.expected_bits.get(link_id, 0.0) + amount

    def _advance(self, dt, rates):
        assert bits(rates) == bits(reference_rates(self))
        if dt > 0:
            for flow in reference_active(self):
                self._carry(flow.path, rates.get(flow.flow_id, 0.0) * dt)
        super()._advance(dt, rates)

    def _fire_completions(self):
        finished = [
            flow
            for flow in self.flows.values()
            if flow.state == FlowState.ACTIVE
            and flow.remaining <= _COMPLETION_REL_EPS * flow.size
        ]
        for flow in finished:
            if flow.remaining > 0:
                self._carry(flow.path, flow.remaining)
        completed = len(self.completed_flows)
        super()._fire_completions()
        assert self.completed_flows[completed:] == finished


CHURN_LINKS = ["a", "b", "c", "d", "e"]
churn_link = st.sampled_from(CHURN_LINKS)
churn_path = st.lists(churn_link, min_size=1, max_size=3, unique=True)
churn_op = st.one_of(
    st.tuples(
        st.just("add"),
        churn_path,
        st.floats(min_value=0.2, max_value=4.0),
        st.sampled_from([1.0, 1.0, 2.0, 0.5]),
        st.one_of(st.none(), st.sampled_from([1.0, 3.0])),
    ),
    st.tuples(st.just("run"), st.floats(min_value=0.01, max_value=0.4)),
    st.tuples(st.just("noop"), st.floats(min_value=0.01, max_value=0.4)),
    st.tuples(st.just("reroute"), st.integers(0, 63), churn_path),
    st.tuples(st.just("fail"), churn_link),
    st.tuples(st.just("fail_silently"), churn_link),
    st.tuples(st.just("restore"), churn_link),
    st.tuples(st.just("weight"), st.integers(0, 63), st.sampled_from([0.5, 1.0, 3.0])),
    st.tuples(st.just("capacity"), churn_link, st.sampled_from([2.0, 5.0, 10.0])),
    st.tuples(st.just("take_remaining"), st.integers(0, 63), st.sampled_from([0.0, 0.5])),
)


def apply_churn(net, op, serial):
    kind, *args = op
    live = list(net.flows.values())
    if kind == "add":
        path, size, weight, rate_cap = args
        net.add_flow(
            Flow(flow_id=f"f{serial}", path=path, size=size, weight=weight, rate_cap=rate_cap)
        )
    elif kind == "run":
        net.run(until=net.now + args[0])
    elif kind == "noop":
        # A timer that changes nothing: the solves after it are skipped,
        # and the shadow checks the reused rates against the reference.
        net.schedule(args[0], lambda: None)
        net.run(until=net.now + 2 * args[0])
    elif kind in ("fail", "fail_silently", "restore", "capacity"):
        link_id = args[0]
        if kind == "fail":
            if net.link(link_id).is_up:
                net.fail_link(link_id)
        elif kind == "fail_silently":
            # What ClusterTopology.disable_spine does: the link goes down,
            # its flows stay ACTIVE but stop transferring.
            net.link(link_id).fail()
        elif kind == "restore":
            net.restore_link(link_id)
        else:
            net.set_link_capacity(link_id, args[1])
    elif live:
        flow = live[args[0] % len(live)]
        if kind == "reroute":
            flow.reroute(args[1])
        elif kind == "weight":
            flow.weight = args[1]
        else:
            # A caller moving in-flight bits off a flow (work stealing).
            flow.remaining *= args[1]


@given(st.lists(churn_op, min_size=1, max_size=40), st.booleans())
@settings(max_examples=150, deadline=None)
def test_network_churn_matches_reference(ops, congested):
    net = ShadowNetwork(CongestionModel(seed=0) if congested else None)
    for link_id in CHURN_LINKS:
        net.add_link(link_id, 10.0)
    for serial, op in enumerate(ops):
        apply_churn(net, op, serial)
        assert bits(net.compute_rates()) == bits(reference_rates(net))
        for link_id, link in net.links.items():
            expected = net.expected_bits.get(link_id, 0.0)
            assert link.bits_carried.hex() == expected.hex()
            assert link.window_bits.hex() == expected.hex()
    net.run(until=net.now + 5.0)
    for link_id, link in net.links.items():
        assert link.bits_carried.hex() == net.expected_bits.get(link_id, 0.0).hex()
