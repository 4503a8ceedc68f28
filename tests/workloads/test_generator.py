"""Tests for the workload builders."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES, ClusterSpec
from repro.netsim.units import GIB
from repro.workloads.generator import (
    FIG14_SPECS,
    allreduce_benchmark,
    build_cluster,
    concurrent_allreduce_jobs,
    fig14_jobs,
    scaling_sweep_job,
)


def test_build_cluster_without_c4p():
    scenario = build_cluster()
    assert scenario.master is None
    assert scenario.selector() is None


def test_build_cluster_with_c4p():
    scenario = build_cluster(use_c4p=True)
    assert scenario.master is not None
    assert scenario.selector() is not None


def test_build_cluster_with_congestion():
    scenario = build_cluster(congestion=True)
    assert scenario.network.congestion is not None


def test_allreduce_benchmark_runs():
    scenario = build_cluster(ecmp_seed=2)
    runner = allreduce_benchmark(scenario, [0, 1], size_bits=1 * GIB, max_ops=3, warmup_ops=1)
    runner.start()
    scenario.network.run()
    assert len(runner.handles) == 3
    assert runner.mean_busbw_gbps > 0


def test_concurrent_jobs_disjoint_nodes():
    scenario = build_cluster()
    runners = concurrent_allreduce_jobs(scenario, max_ops=1)
    comms = [r.comm for r in runners]
    nodes = [n for comm in comms for n in comm.node_sequence]
    assert len(nodes) == len(set(nodes))


def test_concurrent_jobs_capacity_check():
    # Eight two-node jobs need sixteen nodes.
    scenario = build_cluster(ClusterSpec(num_nodes=15))
    with pytest.raises(ValueError):
        concurrent_allreduce_jobs(scenario)


def test_fig14_specs_match_paper_configs():
    job1 = FIG14_SPECS["job1"]
    assert job1.plan.tp == 8 and job1.plan.dp == 16
    job2 = FIG14_SPECS["job2"]
    assert job2.plan.dp == 128 and job2.plan.zero
    job3 = FIG14_SPECS["job3"]
    assert job3.plan.tp == 8 and job3.plan.pp == 8 and job3.plan.grad_accumulation == 16


def test_fig14_all_fit_testbed():
    for spec in FIG14_SPECS.values():
        assert spec.plan.nodes_required(8) <= TESTBED_16_NODES.num_nodes


def test_fig14_job_builder():
    scenario = build_cluster(ecmp_seed=1)
    job = fig14_jobs(scenario, "job1")
    job.run_steps(1)
    scenario.network.run()
    assert len(job.steps) == 1


def test_scaling_sweep_job_sizes():
    job = scaling_sweep_job(2, use_c4p=False)
    assert job.spec.plan.world_size == 16
    assert job.spec.global_batch == pytest.approx(16)


def fig10a_ecmp_digest():
    """SHA-256 over the fig10a ECMP case's link counters and flow end times.

    Every link is metered.  With no window reset a link's counter is its
    total, so it fills both slots the digest has always hashed.
    """
    import hashlib

    from repro.cluster.topology import ClusterTopology
    from repro.netsim.network import FlowNetwork
    from repro.obs.metrics import MetricsRegistry
    from repro.workloads.generator import Scenario

    network = FlowNetwork(metrics=MetricsRegistry())
    topology = ClusterTopology(TESTBED_16_NODES, network, ecmp_seed=0)
    scenario = Scenario(network=network, topology=topology, master=None)
    network.meter(network.links)
    for runner in concurrent_allreduce_jobs(scenario, max_ops=2, warmup_ops=1):
        runner.start()
    network.run()
    digest = hashlib.sha256()
    for link_id, link in network.links.items():
        digest.update(repr((link_id, link.window_bits.hex(), link.window_bits.hex())).encode())
    for flow in network.completed_flows:
        digest.update(repr((flow.flow_id, flow.end_time.hex())).encode())
    return digest.hexdigest(), len(network.completed_flows)


def test_fig10a_ecmp_case_is_bit_identical():
    # 8 jobs, up to 256 concurrent flows on 6-hop paths: every link
    # counter and every completion time, bit for bit.  Flow ids carry
    # the communicator and QP numbers, which each network numbers from
    # its own start, so a second build in the same process matches too.
    for _ in range(2):
        assert fig10a_ecmp_digest() == (
            "236fefd13d0270e468829a99f8bd1f3ad793e6566b8681b1cbfd9bbbf8335777",
            1258,
        )
