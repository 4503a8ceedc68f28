"""The warm max-min solver against the reference, solve by solve.

``FlowNetwork`` carries its solver state from one solve to the next.
Each test here wraps ``FlowNetwork.compute_rates`` so that every dict
it returns is checked, bit for bit and in key order, against
``max_min_rates_reference`` over an active set, capacity map and cap
overrides rebuilt from scratch.  The workloads are Fig. 10a's eight
concurrent allreduce jobs at the benchmark's tiny size (ECMP, then C4P)
and a fabric chaos scenario that fails a leaf uplink and migrates its
flows.  The ECMP run checks hundreds of solves, so this module runs
beside the size ladders rather than in tier-1.
"""

import pytest

from repro.chaos import link_down_scenario, run_fabric_scenario
from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.core.c4p.master import C4PMaster
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry
from repro.workloads.generator import Scenario, concurrent_allreduce_jobs
from tests.netsim.test_properties import bits, reference_rates


@pytest.fixture
def checked_solves(monkeypatch):
    """Check every ``compute_rates`` result; returns the solve counter."""
    solve = FlowNetwork.compute_rates
    seen = {"calls": 0, "flows": 0}

    def checked(self):
        rates = solve(self)
        assert bits(rates) == bits(reference_rates(self))
        seen["calls"] += 1
        seen["flows"] = max(seen["flows"], len(rates))
        return rates

    monkeypatch.setattr(FlowNetwork, "compute_rates", checked)
    return seen


@pytest.mark.parametrize("use_c4p", [False, True], ids=["ecmp", "c4p"])
def test_fig10a_tiny_matches_reference_every_solve(checked_solves, use_c4p):
    network = FlowNetwork(metrics=MetricsRegistry())
    topology = ClusterTopology(TESTBED_16_NODES, network, ecmp_seed=0)
    master = C4PMaster(topology, metrics=MetricsRegistry()) if use_c4p else None
    scenario = Scenario(network=network, topology=topology, master=master)
    runners = concurrent_allreduce_jobs(scenario, max_ops=2, warmup_ops=1)
    for runner in runners:
        runner.start()
    network.run()
    assert all(runner.mean_busbw_gbps > 0 for runner in runners)
    # C4P's balanced placement finishes every job's flows together, so
    # it needs only a handful of solves; ECMP collisions need hundreds.
    assert checked_solves["calls"] > (2 if use_c4p else 500)
    assert checked_solves["flows"] > 100


def test_link_down_scenario_matches_reference_every_solve(checked_solves):
    card = run_fabric_scenario(link_down_scenario(seed=0))
    assert card.completed
    assert card.fabric.migrations > 0
    assert checked_solves["calls"] > 100
