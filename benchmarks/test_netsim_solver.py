"""Max-min solver size ladder: heap solver vs the vectorized reference.

Random NIC-to-NIC flows on the 16-node testbed fabric, 1k to 10k of
them, each over a full resolved path (NVLink stages, bonded host ports,
leaf uplink, spine downlink).  Both solvers run on the same instance,
and must agree bit for bit before either is timed.  Each size is one
benchmark group, so the table compares the two solvers row by row.
"""

import random

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology, PathChoice
from repro.netsim.fairness import max_min_rates, max_min_rates_reference
from repro.netsim.flows import Flow
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry

SIZES = (1_000, 2_000, 5_000, 10_000)
SOLVERS = {"heap": max_min_rates, "reference": max_min_rates_reference}


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
    return {size: fabric_instance(size) for size in SIZES}


@pytest.mark.parametrize("num_flows", SIZES)
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_max_min_solver(benchmark, instances, solver, num_flows):
    flows, capacities = instances[num_flows]
    fast = max_min_rates(flows, capacities)
    reference = max_min_rates_reference(flows, capacities)
    assert [r.hex() for r in fast.values()] == [r.hex() for r in reference.values()]
    benchmark.group = f"max_min_rates, {num_flows} flows"
    benchmark.extra_info["incidences"] = sum(len(flow.path) for flow in flows)
    rates = benchmark.pedantic(
        SOLVERS[solver], args=(flows, capacities), rounds=3, iterations=1
    )
    assert len(rates) == num_flows
