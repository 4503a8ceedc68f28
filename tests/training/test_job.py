"""Tests for the training-job step engine."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.context import CollectiveContext
from repro.netsim.network import FlowNetwork
from repro.training.job import JobSpec, TrainingJob
from repro.training.models import GPT_22B, LLAMA_7B
from repro.training.parallelism import ParallelismPlan


def build_job(spec, seed=2, nodes=None):
    net = FlowNetwork()
    topo = ClusterTopology(TESTBED_16_NODES, net, ecmp_seed=seed)
    ctx = CollectiveContext(topo, job_id=spec.name)
    nodes = nodes or list(range(spec.plan.nodes_required(8)))
    return net, topo, TrainingJob(spec, ctx, nodes=nodes)


JOB1 = JobSpec("job1", GPT_22B, ParallelismPlan(tp=8, dp=16), global_batch=256)


def test_requires_enough_nodes():
    net = FlowNetwork()
    topo = ClusterTopology(TESTBED_16_NODES, net)
    ctx = CollectiveContext(topo)
    with pytest.raises(ValueError):
        TrainingJob(JOB1, ctx, nodes=[0, 1])


def test_steps_complete_and_are_timed():
    net, _topo, job = build_job(JOB1)
    job.run_steps(3)
    net.run()
    assert len(job.steps) == 3
    for step in job.steps:
        assert step.compute_seconds > 0
        assert step.comm_seconds > 0
        assert step.step_seconds == pytest.approx(
            step.compute_seconds + step.comm_seconds, rel=1e-6
        )


def test_steps_are_back_to_back():
    net, _topo, job = build_job(JOB1)
    job.run_steps(2)
    net.run()
    assert job.steps[1].start_time == pytest.approx(job.steps[0].end_time)


def test_throughput_positive():
    net, _topo, job = build_job(JOB1)
    job.run_steps(3)
    net.run()
    assert job.throughput_samples_per_second(skip=1) > 0


def test_throughput_requires_steps():
    net, _topo, job = build_job(JOB1)
    with pytest.raises(RuntimeError):
        job.throughput_samples_per_second()


def test_run_steps_validates_count():
    _net, _topo, job = build_job(JOB1)
    with pytest.raises(ValueError):
        job.run_steps(0)


def test_slow_gpu_inflates_compute():
    net, topo, job = build_job(JOB1)
    topo.node(5).gpus[3].compute_scale = 0.5
    job.run_steps(1)
    net.run()
    slowed = job.steps[0].compute_seconds

    net2, _topo2, job2 = build_job(JOB1)
    job2.run_steps(1)
    net2.run()
    healthy = job2.steps[0].compute_seconds
    assert slowed == pytest.approx(2 * healthy)


def test_dp1_job_has_no_comm():
    spec = JobSpec("solo", LLAMA_7B, ParallelismPlan(tp=8, dp=1), global_batch=8)
    net, _topo, job = build_job(spec, nodes=[0])
    job.run_steps(2)
    net.run()
    assert all(step.comm_seconds == 0 for step in job.steps)


def test_grad_accumulation_amortizes_comm():
    # Same plan; 4x the batch => ~4x compute but identical comm volume,
    # so the comm *fraction* must shrink.
    small = JobSpec("s", GPT_22B, ParallelismPlan(tp=8, dp=16), global_batch=64)
    large = JobSpec("l", GPT_22B, ParallelismPlan(tp=8, dp=16), global_batch=256)
    net1, _t1, job_small = build_job(small)
    job_small.run_steps(2)
    net1.run()
    net2, _t2, job_large = build_job(large)
    job_large.run_steps(2)
    net2.run()
    assert job_large.mean_comm_fraction() < job_small.mean_comm_fraction()


def test_pp_traffic_runs_when_configured():
    spec = JobSpec(
        "pp",
        GPT_22B,
        ParallelismPlan(tp=8, pp=2, dp=2),
        global_batch=64,
        pp_activation_bits=1e9,
    )
    net, _topo, job = build_job(spec)
    job.run_steps(1)
    net.run()
    assert len(job.steps) == 1


def test_on_all_done_callback():
    net, _topo, job = build_job(JOB1)
    done = []
    job.run_steps(2, on_all_done=lambda: done.append(True))
    net.run()
    assert done == [True]
