"""Cross-package integration tests reproducing the paper's key shapes.

These are the load-bearing assertions of the reproduction: who wins, by
roughly what factor, and where behaviours cross over — mirrored from the
evaluation section and checked end-to-end through the full stack
(cluster + netsim + collective + C4D/C4P + telemetry).
"""

import pytest

from repro.cluster.faults import FaultInjector
from repro.collective.algorithms import OpType
from repro.collective.context import CollectiveContext, RepeatedOp
from repro.collective.placement import contiguous_ranks
from repro.core.c4d.detectors import DetectorConfig
from repro.core.c4d.events import AnomalyType
from repro.core.c4d.master import C4DMaster
from repro.core.c4p.load_balance import DynamicLoadBalancer
from repro.netsim.units import GIB
from repro.telemetry.agent import AgentPlane
from repro.telemetry.collector import CentralCollector
from repro.workloads.generator import (
    allreduce_benchmark,
    build_cluster,
    concurrent_allreduce_jobs,
    fig12_spec,
    fig14_jobs,
)


def test_fig9_shape_c4p_beats_ecmp_by_50_percent():
    results = {}
    for use_c4p in (False, True):
        scenario = build_cluster(use_c4p=use_c4p, ecmp_seed=9)
        runner = allreduce_benchmark(scenario, list(range(4)), max_ops=4, warmup_ops=1)
        runner.start()
        scenario.network.run()
        results[use_c4p] = runner.mean_busbw_gbps
    assert results[False] < 240.0  # paper: "lower than 240 Gbps in most cases"
    assert results[True] == pytest.approx(362.0, rel=0.02)  # NVLink-capped peak
    assert results[True] / results[False] > 1.4  # ">= 50% performance gain"


def test_fig10a_shape_uniformity_and_gain():
    means = {}
    for use_c4p in (False, True):
        scenario = build_cluster(use_c4p=use_c4p, ecmp_seed=4)
        runners = concurrent_allreduce_jobs(scenario, max_ops=6, warmup_ops=2)
        for runner in runners:
            runner.start()
        scenario.network.run()
        series = [r.mean_busbw_gbps for r in runners]
        means[use_c4p] = series
    with_c4p, without = means[True], means[False]
    # With C4P all jobs sit at the peak with tiny spread.
    assert max(with_c4p) - min(with_c4p) < 15.0
    assert min(with_c4p) > 350.0
    # Without C4P: big spread, much lower throughput.
    assert max(without) - min(without) > 15.0
    avg_gain = (sum(with_c4p) / 8) / (sum(without) / 8)
    assert avg_gain > 1.5  # paper: +70.3%


def test_fig12_shape_dynamic_lb_recovers_link_failure():
    results = {}
    for dynamic in (False, True):
        # Static TE = planned paths, no chunk re-posting, no path moves.
        scenario = build_cluster(fig12_spec(), use_c4p=True, ecmp_seed=6)
        runners = concurrent_allreduce_jobs(
            scenario, max_ops=40, warmup_ops=0, dynamic=dynamic
        )
        for runner in runners:
            runner.start()
        if dynamic:
            contexts = [r.context for r in runners]
            balancer = DynamicLoadBalancer(contexts)
            balancer.start()
        # Fail one of the 8 uplinks mid-run.
        scenario.network.schedule(
            0.1, lambda: scenario.network.fail_link(("lup", 0, 0, 0, 0))
        )
        scenario.network.run(until=2.5)
        after_failure = [
            h.busbw_per_nic_gbps
            for r in runners
            for h in r.handles
            if h.start_time > 0.15
        ]
        results[dynamic] = sum(after_failure) / len(after_failure)
    # Paper: static TE avg 185.76 vs dynamic LB 301.46 (+62.3%); the
    # shape criterion is a clear win for dynamic load balancing, with
    # dynamic staying near the 7/8 ideal.
    assert results[True] > results[False] * 1.15
    assert results[True] > 310.0


def test_fig14_shape_comm_bound_jobs_gain_ga_job_does_not():
    gains = {}
    for which in ("job1", "job3"):
        throughputs = {}
        for use_c4p in (False, True):
            scenario = build_cluster(use_c4p=use_c4p, ecmp_seed=12)
            job = fig14_jobs(scenario, which)
            job.run_steps(3)
            scenario.network.run()
            throughputs[use_c4p] = job.throughput_samples_per_second(skip=1)
        gains[which] = throughputs[True] / throughputs[False] - 1.0
    assert gains["job1"] > 0.08  # communication-bound: real gain
    assert gains["job3"] < 0.05  # GA=16 amortizes comm: no visible gain
    assert gains["job1"] > gains["job3"]


def test_c4d_full_pipeline_on_training_job():
    # A training job with a degraded NIC: C4D must localize it from the
    # job's own telemetry.
    scenario = build_cluster(ecmp_seed=3)
    collector = CentralCollector()
    plane = AgentPlane(collector, clock=lambda: scenario.network.now)
    ctx = CollectiveContext(scenario.topology, sink=plane, job_id="train")
    comm = ctx.communicator(contiguous_ranks(range(8), 8), comm_id="dp")
    FaultInjector(seed=1).degrade_nic_port(scenario.topology, 6, 2, 0, 0.2)
    FaultInjector(seed=1).degrade_nic_port(scenario.topology, 6, 2, 1, 0.2)
    runner = RepeatedOp(ctx, comm, OpType.ALLREDUCE, 1 * GIB, max_ops=5)
    runner.start()
    scenario.network.run()
    master = C4DMaster(collector, DetectorConfig(slow_window=1e9))
    anomalies = master.evaluate(scenario.network.now)
    slow = [a for a in anomalies if a.anomaly_type is AnomalyType.COMM_SLOW]
    assert slow and any(s.node == 6 and s.device == 2 for s in slow[0].suspects)
