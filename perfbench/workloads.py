"""The three benchmark workloads, each split into set-up and run.

``SETUP[name](variant, size, registry)`` builds everything the run
needs (imports come before it, and both count in ``setup_s``);
``RUN[name](state)`` does the measured work and returns the workload's
gated output plus any figures the workload reports from its own run.

* ``fig10a`` -- the Fig. 10a experiment: 8 concurrent 2-node allreduce
  jobs on the 1:1 testbed fabric, first with ECMP, then with C4P.  The
  variant picks the ECMP seed from ``FIG10A_ECMP_SEEDS``.
* ``chaos_campaign`` -- ``default_campaign(seed)``, the seed picked by
  the variant from ``CHAOS_CAMPAIGN_SEEDS``: 13 scenarios of four kinds,
  scored against injected ground truth.
* ``detect_1k`` -- the closed loop of :mod:`detect`.
"""

from __future__ import annotations

import hashlib
import json

import detect

#: fig10a sizes: (measured ops, warm-up ops) per job.
FIG10A_OPS = {"full": (10, 3), "tiny": (2, 1)}
#: The ECMP seed of each variant.  ECMP seeds 0-20 cost from 0.7x to
#: 1.1x the solver work of seed 4 (the EXPERIMENTS.md run, variant 4);
#: these five cost within 3% of each other, so the seed picks the input
#: without moving the time.
FIG10A_ECMP_SEEDS = (0, 6, 15, 17, 4)
#: The campaign seed of each variant.  Campaign seeds 0-15 localize either
#: 12 or all 13 injected faults; these five, seed 0 first, all localize 12,
#: so recall is the same figure on every variant.
CHAOS_CAMPAIGN_SEEDS = (0, 1, 10, 11, 15)


# ----------------------------------------------------------------------
# fig10a
# ----------------------------------------------------------------------
def _fig10a_case(use_c4p: bool, ecmp_seed: int, ops: int, warmup: int, registry):
    from repro.cluster.specs import TESTBED_16_NODES
    from repro.cluster.topology import ClusterTopology
    from repro.core.c4p.master import C4PMaster
    from repro.netsim.network import FlowNetwork
    from repro.workloads.generator import Scenario, concurrent_allreduce_jobs

    network = FlowNetwork(metrics=registry)
    topology = ClusterTopology(TESTBED_16_NODES, network, ecmp_seed=ecmp_seed)
    master = C4PMaster(topology, metrics=registry) if use_c4p else None
    scenario = Scenario(network=network, topology=topology, master=master)
    return scenario, concurrent_allreduce_jobs(scenario, max_ops=ops, warmup_ops=warmup)


def fig10a_setup(variant: int, size: str, registry) -> dict:
    ops, warmup = FIG10A_OPS[size]
    ecmp_seed = FIG10A_ECMP_SEEDS[variant]
    return {
        "cases": [
            _fig10a_case(use_c4p, ecmp_seed, ops, warmup, registry)
            for use_c4p in (False, True)
        ]
    }


def fig10a_run(state: dict) -> dict:
    busbw = []
    for scenario, runners in state["cases"]:
        for runner in runners:
            runner.start()
        scenario.network.run()
        busbw.append([runner.mean_busbw_gbps for runner in runners])
    return {"output": fig10a_output(*busbw)}


def fig10a_output(without: list, with_c4p: list) -> dict:
    """Per-job busbw at the 0.1 Gbps precision EXPERIMENTS.md reports."""
    gain = (sum(with_c4p) / len(with_c4p)) / (sum(without) / len(without)) - 1.0
    return {
        "without_c4p": [f"{x:.1f}" for x in without],
        "with_c4p": [f"{x:.1f}" for x in with_c4p],
        "mean_gain_pct": f"{100 * gain:.1f}",
    }


# ----------------------------------------------------------------------
# chaos_campaign
# ----------------------------------------------------------------------
def chaos_setup(variant: int, size: str, registry) -> dict:
    from repro.chaos.campaign import ChaosCampaign
    from repro.chaos.scenario import default_campaign
    from repro.obs.report import ObservabilityPlane

    scenarios = default_campaign(CHAOS_CAMPAIGN_SEEDS[variant])
    if size == "tiny":
        # The first scenario of each kind.
        first = {}
        for scenario in scenarios:
            first.setdefault(scenario.kind, scenario)
        scenarios = list(first.values())
    plane = ObservabilityPlane(registry=registry)
    return {"campaign": ChaosCampaign(scenarios=scenarios, observability=plane)}


def chaos_run(state: dict) -> dict:
    from repro.analysis.export import scenario_scorecard_to_dict

    card = state["campaign"].run()
    return {
        "output": {
            "scenarios": [
                scenario_digest(scenario_scorecard_to_dict(s)) for s in card.scenarios
            ],
            "precision": round(card.precision, 6),
            "recall": round(card.recall, 6),
        },
        "chaos": {"precision": card.precision, "recall": card.recall},
    }


def scenario_digest(card: dict) -> dict:
    """A scenario scorecard's headline plus a digest of every field.

    Scorecards hold simulated quantities only; the wall-clock series
    live in the observability registry, which is not part of the gate.
    """
    canonical = json.dumps(card, sort_keys=True, separators=(",", ":"))
    return {
        "name": card["name"],
        "precision": round(card["precision"], 6),
        "recall": round(card["recall"], 6),
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


# ----------------------------------------------------------------------
# detect_1k (also the detection probe of the other workloads)
# ----------------------------------------------------------------------
def detect_setup(variant: int, size: str, registry) -> dict:
    return {"loop": detect.DetectLoop(detect.SIZES[size], registry)}


def detect_run(state: dict) -> dict:
    return state["loop"].run(state["data"])


SETUP = {"fig10a": fig10a_setup, "chaos_campaign": chaos_setup, "detect_1k": detect_setup}
RUN = {"fig10a": fig10a_run, "chaos_campaign": chaos_run, "detect_1k": detect_run}
