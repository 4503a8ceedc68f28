"""Ablations of the design choices DESIGN.md §5 calls out.

Each ablation disables one mechanism and quantifies which paper result
it is load-bearing for:

* **plane rule** — without left/right plane preservation the Fig. 9
  bonded-port imbalance returns;
* **work stealing** — without chunk re-posting a connection is gated by
  its slowest QP (the static-TE behaviour of Fig. 12);
* **congestion model** — without DCQCN the 2:1 configuration produces
  neither CNPs nor the Fig. 10b spread;
* **registry balance** — replacing balanced allocation with hashing
  reintroduces the multi-job collisions of Fig. 10a.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.analysis.stats import Summary, summarize
from repro.collective.algorithms import OpType
from repro.collective.context import CollectiveContext
from repro.collective.placement import contiguous_ranks
from repro.core.c4p.master import C4PMaster
from repro.core.c4p.selector import C4PSelector
from repro.netsim.units import GIB
from repro.workloads.generator import build_cluster, concurrent_allreduce_jobs, fig10b_spec


@dataclass(frozen=True)
class AblationResult:
    """All four ablations' headline numbers (busbw in Gbps)."""

    plane_rule_on: float
    plane_rule_off: float
    stealing_on: float
    stealing_off: float
    congestion_on: Summary
    congestion_off: Summary
    congestion_cnps: float
    registry_c4p: Summary
    registry_ecmp: Summary


def _single_allreduce(make_selector, ecmp_seed: int, **context_kwargs) -> float:
    scenario = build_cluster(ecmp_seed=ecmp_seed)
    context = CollectiveContext(
        scenario.topology, selector=make_selector(scenario), **context_kwargs
    )
    comm = context.communicator(contiguous_ranks(range(4), 8))
    handle = context.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    scenario.network.run()
    return handle.busbw_per_nic_gbps


def run(ecmp_seed: int = 9) -> AblationResult:
    """Run all four ablations."""
    plane = {}
    for enforce in (True, False):
        plane[enforce] = _single_allreduce(
            lambda s, e=enforce: C4PSelector(C4PMaster(s.topology, enforce_plane=e)),
            ecmp_seed,
        )

    stealing = {}
    for on in (True, False):
        scenario = build_cluster(ecmp_seed=1)
        scenario.topology.set_port_scale(0, 0, 0, 0.2)
        context = CollectiveContext(scenario.topology, qp_work_stealing=on)
        comm = context.communicator(contiguous_ranks(range(2), 8), comm_id=f"ws{on}")
        handle = context.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
        scenario.network.run()
        stealing[on] = handle.busbw_per_nic_gbps

    congestion = {}
    cnps = 0.0
    for on in (True, False):
        scenario = build_cluster(
            fig10b_spec(),
            use_c4p=True,
            ecmp_seed=4,
            congestion=on,
            disable_spines_per_rail=4,
        )
        runners = concurrent_allreduce_jobs(scenario, max_ops=8, warmup_ops=2)
        for runner in runners:
            runner.start()
        scenario.network.run()
        congestion[on] = summarize([r.mean_busbw_gbps for r in runners])
        if on:
            cnps = sum(scenario.network.congestion.cnp_counts.values())

    registry = {}
    for use_c4p in (True, False):
        scenario = build_cluster(use_c4p=use_c4p, ecmp_seed=4)
        runners = concurrent_allreduce_jobs(scenario, max_ops=6, warmup_ops=2)
        for runner in runners:
            runner.start()
        scenario.network.run()
        registry[use_c4p] = summarize([r.mean_busbw_gbps for r in runners])

    return AblationResult(
        plane_rule_on=plane[True],
        plane_rule_off=plane[False],
        stealing_on=stealing[True],
        stealing_off=stealing[False],
        congestion_on=congestion[True],
        congestion_off=congestion[False],
        congestion_cnps=cnps,
        registry_c4p=registry[True],
        registry_ecmp=registry[False],
    )


def format_result(result: AblationResult) -> str:
    """Render the four ablation rows."""
    rows = [
        (
            "plane rule",
            f"{result.plane_rule_on:.1f}",
            f"{result.plane_rule_off:.1f}",
            "Fig. 9 imbalance returns",
        ),
        (
            "QP work stealing",
            f"{result.stealing_on:.1f}",
            f"{result.stealing_off:.1f}",
            "slowest-QP gating (degraded port)",
        ),
        (
            "DCQCN model",
            f"{result.congestion_on.mean:.1f} (±{result.congestion_on.spread:.1f})",
            f"{result.congestion_off.mean:.1f} (±{result.congestion_off.spread:.1f})",
            f"{result.congestion_cnps:.0f} CNPs vs none",
        ),
        (
            "balanced registry",
            f"{result.registry_c4p.mean:.1f}",
            f"{result.registry_ecmp.mean:.1f}",
            "multi-job collisions return",
        ),
    ]
    return "Ablations — mechanism on vs off (busbw Gbps)\n" + format_table(
        ["mechanism", "on", "off", "consequence"], rows
    )
