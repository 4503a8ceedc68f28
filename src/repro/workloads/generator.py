"""Builders for the paper's evaluation workloads.

Each builder wires a ready-to-run scenario on a fresh simulated cluster:
the nccl-test-style allreduce benchmark (Figs. 9-13), the 8-concurrent-
job contention setup (Fig. 10), the three real-life training jobs
(Fig. 14) and the 16-to-512-GPU scaling sweep (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.specs import TESTBED_16_NODES, ClusterSpec, pod_spec
from repro.cluster.topology import ClusterTopology
from repro.collective.algorithms import OpType
from repro.collective.context import CollectiveContext, RepeatedOp
from repro.collective.placement import contiguous_ranks
from repro.core.c4p.master import C4PMaster
from repro.core.c4p.selector import C4PSelector
from repro.netsim.congestion import CongestionModel
from repro.netsim.network import FlowNetwork
from repro.netsim.units import GIB
from repro.training.job import JobSpec, TrainingJob
from repro.training.models import GPT_175B, GPT_22B, LLAMA_7B
from repro.training.parallelism import ParallelismPlan


@dataclass
class Scenario:
    """A built scenario: fabric + topology + optional C4P master."""

    network: FlowNetwork
    topology: ClusterTopology
    master: Optional[C4PMaster]

    def selector(self, dynamic: bool = True) -> Optional[C4PSelector]:
        """A C4P client selector, or None when C4P is off."""
        if self.master is None:
            return None
        return C4PSelector(self.master, dynamic=dynamic)


def build_cluster(
    spec: ClusterSpec = TESTBED_16_NODES,
    use_c4p: bool = False,
    ecmp_seed: int = 0,
    congestion: bool = False,
    disable_spines_per_rail: int = 0,
) -> Scenario:
    """Fresh network + topology (+ C4P master when requested).

    ``disable_spines_per_rail`` administratively removes the highest-
    numbered spines of every rail *before* the C4P master probes, which
    is how the paper creates its 2:1-oversubscribed configuration
    ("intentionally reduced the number of active spine switches by
    half", Fig. 10b).
    """
    model = None
    if congestion:
        # DCQCN manages the Ethernet fabric only; the virtual NVLink
        # stages are lossless and never ECN-marked.
        model = CongestionModel(link_filter=lambda link_id: link_id[0] != "nvl")
    network = FlowNetwork(congestion=model)
    topology = ClusterTopology(spec, network, ecmp_seed=ecmp_seed)
    if disable_spines_per_rail:
        for rail in range(spec.rails):
            for spine in range(
                spec.spines_per_rail - disable_spines_per_rail, spec.spines_per_rail
            ):
                topology.disable_spine(rail, spine)
    master = C4PMaster(topology) if use_c4p else None
    return Scenario(network=network, topology=topology, master=master)


def fig10b_spec(num_nodes: int = 16) -> ClusterSpec:
    """Fabric for the congested (2:1) experiment of Figs. 10b/11.

    The testbed's dual-plane leaves have capacity headroom over the
    NVLink-capped demand, so halving the active spines lands the spine
    tier right at the saturation boundary (live capacity ≈ 0.97x the
    NVLink-capped demand).  That is the regime the paper measures:
    DCQCN queue buildup, ~15k CNP/s per bonded port (Fig. 11), sender
    throttling and a small busbw spread (Fig. 10b) — instead of either
    an uncongested fabric (no CNPs) or a hard-halved one (throughput
    collapse the paper does not observe).  Each leaf-spine connection is
    one fat physical pipe so displaced load spreads statistically rather
    than quantizing onto 200 Gbps ports.
    """
    return ClusterSpec(
        num_nodes=num_nodes, uplink_ports_per_spine=1, uplink_port_gbps=1400.0
    )


def fig12_spec(num_nodes: int = 16) -> ClusterSpec:
    """The Fig. 12/13 fabric: eight single uplinks per leaf.

    The failure experiment counts "1 link error among the 8 uplinks", so
    each leaf connects to its 8 spines through one fat physical link
    (800 Gbps keeps the fabric 1:1 against the 32 x 200 Gbps downlinks).
    Losing one uplink removes 1/8 of a leaf's capacity — exactly the
    7/8-ideal geometry the paper reasons about.
    """
    return ClusterSpec(
        num_nodes=num_nodes,
        uplink_ports_per_spine=1,
        uplink_port_gbps=800.0,
    )


def allreduce_benchmark(
    scenario: Scenario,
    nodes: list[int],
    size_bits: float = 1 * GIB,
    max_ops: int = 8,
    warmup_ops: int = 2,
    job_id: str = "bench",
    dynamic: bool = True,
    qp_work_stealing: bool = True,
) -> RepeatedOp:
    """An nccl-test-style back-to-back allreduce over full nodes.

    ``dynamic``/``qp_work_stealing`` together select C4P's mode: static
    traffic engineering plans paths once and never shifts load (both
    False-ish), while the deployed system re-posts chunks to the fastest
    QP and re-allocates paths on failure.
    """
    context = CollectiveContext(
        scenario.topology,
        selector=scenario.selector(dynamic),
        job_id=job_id,
        qp_work_stealing=qp_work_stealing,
    )
    gpus = scenario.topology.spec.gpus_per_node
    comm = context.communicator(contiguous_ranks(nodes, gpus), comm_id=job_id)
    return RepeatedOp(
        context, comm, OpType.ALLREDUCE, size_bits, max_ops=max_ops, warmup_ops=warmup_ops
    )


def concurrent_allreduce_jobs(
    scenario: Scenario,
    num_jobs: int = 8,
    nodes_per_job: int = 2,
    size_bits: float = 1 * GIB,
    max_ops: int = 8,
    warmup_ops: int = 2,
    stop_time: Optional[float] = None,
    dynamic: bool = True,
    qp_work_stealing: bool = True,
) -> list[RepeatedOp]:
    """The Fig. 10 setup: disjoint 2-node jobs saturating the spines."""
    spec = scenario.topology.spec
    if num_jobs * nodes_per_job > spec.num_nodes:
        raise ValueError("not enough nodes for the requested jobs")
    runners = []
    for j in range(num_jobs):
        node_ids = list(range(j * nodes_per_job, (j + 1) * nodes_per_job))
        runners.append(
            allreduce_benchmark(
                scenario,
                node_ids,
                size_bits=size_bits,
                max_ops=max_ops,
                warmup_ops=warmup_ops,
                job_id=f"job{j}",
                dynamic=dynamic,
                qp_work_stealing=qp_work_stealing,
            )
        )
    if stop_time is not None:
        for runner in runners:
            runner.stop_time = stop_time
            runner.max_ops = None
    return runners


#: Fig. 14's three representative jobs, calibrated so absolute
#: throughputs and relative gains land near the paper's.
FIG14_SPECS = {
    "job1": JobSpec(
        name="job1-gpt22b",
        model=GPT_22B,
        plan=ParallelismPlan(tp=8, dp=16),
        global_batch=256,
    ),
    "job2": JobSpec(
        name="job2-llama7b",
        model=LLAMA_7B,
        plan=ParallelismPlan(dp=128, zero=True),
        global_batch=192,
    ),
    "job3": JobSpec(
        name="job3-gpt175b",
        model=GPT_175B,
        plan=ParallelismPlan(tp=8, pp=8, dp=2, grad_accumulation=16),
        global_batch=512,
    ),
}


def fig14_jobs(scenario: Scenario, which: str, dynamic: bool = True) -> TrainingJob:
    """Build one of the Fig. 14 jobs on the scenario's cluster."""
    spec = FIG14_SPECS[which]
    context = CollectiveContext(
        scenario.topology, selector=scenario.selector(dynamic), job_id=spec.name
    )
    nodes_needed = spec.plan.nodes_required(scenario.topology.spec.gpus_per_node)
    return TrainingJob(spec, context, nodes=list(range(nodes_needed)))


def scaling_sweep_job(
    num_nodes: int,
    use_c4p: bool,
    ecmp_seed: int = 0,
    global_batch_per_gpu: float = 1.0,
) -> TrainingJob:
    """One point of the Fig. 3 sweep: GPT-22B on ``num_nodes`` nodes.

    The job is TP8 x DP(num_nodes), matching how a 22B model actually
    trains at these scales, with the batch scaled to keep per-GPU work
    constant (weak scaling, as in the figure).  One sample per GPU per
    step puts the ideal communication share around 15% — the regime in
    which the figure's growing gap (down to ~70% of ideal at 512 GPUs)
    appears.
    """
    scenario = build_cluster(pod_spec(num_nodes), use_c4p=use_c4p, ecmp_seed=ecmp_seed)
    spec = JobSpec(
        name=f"gpt22b-{num_nodes}n",
        model=GPT_22B,
        plan=ParallelismPlan(tp=8, dp=num_nodes),
        global_batch=global_batch_per_gpu * num_nodes * 8,
    )
    context = CollectiveContext(
        scenario.topology, selector=scenario.selector(), job_id=spec.name
    )
    return TrainingJob(spec, context, nodes=list(range(num_nodes)))
