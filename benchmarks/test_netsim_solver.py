"""Max-min solver size ladder: cold and warm solves vs the vectorized reference.

Random NIC-to-NIC flows on the 16-node testbed fabric, 1k to 10k of
them, each over a full resolved path (NVLink stages, bonded host ports,
leaf uplink, spine downlink).  Three rungs per size:

* ``cold`` -- :func:`max_min_rates` without a state, which builds its
  incidence state from empty;
* ``warm`` -- a re-solve from the state of the previous active set after
  two flows completed and two started, Fig. 10a's churn between solves;
* ``reference`` -- :func:`max_min_rates_reference` on the cold input.

Each rung's result must equal the reference's bit for bit, in key order,
before it is timed.  Each size is one benchmark group, so the table
compares the rungs row by row.
"""

import random

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology, PathChoice
from repro.netsim.fairness import Delta, FairShareState, max_min_rates
from repro.netsim.flows import Flow
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry
from tests.netsim.test_fairness import max_min_rates_reference

SIZES = (1_000, 2_000, 5_000, 10_000)
RUNGS = ("cold", "reference", "warm")
#: Flows that complete, and flows that start, between the warm rung's solves.
CHURN = 2


def fabric_instance(num_flows: int, seed: int = 0):
    """``num_flows`` unit-weight flows on random paths, plus capacities."""
    network = FlowNetwork(metrics=MetricsRegistry())
    topology = ClusterTopology(TESTBED_16_NODES, network)
    spec = topology.spec
    rng = random.Random(seed)
    flows = []
    for i in range(num_flows):
        src, dst = rng.sample(range(spec.num_nodes), 2)
        nic = rng.randrange(spec.nics_per_node)
        choice = PathChoice(
            src_side=rng.randrange(2),
            spine=rng.randrange(spec.spines_per_rail),
            up_port=rng.randrange(spec.uplink_ports_per_spine),
            dst_side=rng.randrange(2),
            down_port=rng.randrange(spec.uplink_ports_per_spine),
        )
        path = topology.resolve_path(src, nic, dst, nic, choice)
        flows.append(Flow(flow_id=i, path=path, size=1.0))
    capacities = {link_id: link.capacity for link_id, link in network.links.items()}
    return flows, capacities


@pytest.fixture(scope="module")
def instances():
    """Per size: the flows before the churn, the flows after, capacities."""
    ladder = {}
    for size in SIZES:
        flows, capacities = fabric_instance(size + CHURN)
        ladder[size] = (flows[:size], flows[CHURN:], capacities)
    return ladder


def warm_state(before, capacities):
    """A state that last solved ``before``."""
    state = FairShareState()
    max_min_rates(before, capacities, state=state)
    return state


def churn(before):
    """The delta from ``before`` to the flows after the churn: the first
    ``CHURN`` flows left, and as many came at the back."""
    size = len(before)
    return Delta(removed=before[:CHURN], added=list(range(size - CHURN, size)))


def hexes(rates):
    return [(flow_id, rate.hex()) for flow_id, rate in rates.items()]


@pytest.mark.parametrize("num_flows", SIZES)
@pytest.mark.parametrize("rung", RUNGS)
def test_max_min_solver(benchmark, instances, rung, num_flows):
    before, after, capacities = instances[num_flows]
    reference = max_min_rates_reference(before, capacities)
    assert hexes(max_min_rates(before, capacities)) == hexes(reference)
    warm = max_min_rates(
        after, capacities, state=warm_state(before, capacities), delta=churn(before)
    )
    assert hexes(warm) == hexes(max_min_rates_reference(after, capacities))
    benchmark.group = f"max_min_rates, {num_flows} flows"
    benchmark.extra_info["incidences"] = sum(len(flow.path) for flow in before)
    if rung == "warm":
        rates = benchmark.pedantic(
            max_min_rates,
            setup=lambda: (
                (after, capacities),
                {"state": warm_state(before, capacities), "delta": churn(before)},
            ),
            rounds=3,
            iterations=1,
        )
    else:
        solver = max_min_rates if rung == "cold" else max_min_rates_reference
        rates = benchmark.pedantic(solver, args=(before, capacities), rounds=3, iterations=1)
    assert len(rates) == num_flows
