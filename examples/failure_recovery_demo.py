#!/usr/bin/env python3
"""The complete Fig. 4 loop: crash → detect → isolate → restart → finish.

A GPT-22B job (TP8 x DP4, 32 GPUs) runs under the full C4 deployment —
monitored ACCL, C4 agents, the C4D master evaluating every 5 simulated
seconds, a scheduler with the paper's backup provisioning, and an
in-memory checkpointer saving every 3 steps.

Two worker crashes are injected.  The first is absorbed by the backup
pool; the second exhausts it and the job elastically shrinks its DP
degree to finish on the remaining healthy nodes.

Run:  python examples/failure_recovery_demo.py
"""

from repro.core.c4d.detectors import DetectorConfig
from repro.core.c4d.steering import SteeringConfig
from repro.training.job import JobSpec
from repro.training.memory_checkpoint import InMemoryCheckpointer
from repro.training.models import GPT_22B
from repro.training.parallelism import ParallelismPlan
from repro.training.recovery import RecoveryOrchestrator
from repro.training.scheduler import ClusterScheduler
from repro.workloads.generator import build_cluster


def main() -> None:
    scenario = build_cluster(ecmp_seed=2)
    scheduler = ClusterScheduler(scenario.topology, backup_ratio=1 / 16)
    print(f"cluster: {scenario.topology.spec.num_nodes} nodes, "
          f"{len(scheduler.backup_nodes)} reserved as backups "
          f"(paper: 8 spares per 128 servers)")

    spec = JobSpec("gpt22b", GPT_22B, ParallelismPlan(tp=8, dp=4), global_batch=64)
    orchestrator = RecoveryOrchestrator(
        scenario.topology,
        scheduler,
        spec,
        detector_config=DetectorConfig(hang_timeout=20.0),
        steering_config=SteeringConfig(isolation_seconds=60, restart_seconds=120),
        checkpointer=InMemoryCheckpointer(interval_steps=3, save_seconds=0.1),
        evaluation_interval=5.0,
    )
    report = orchestrator.start(num_nodes=4, total_steps=30)
    print(f"job launched on nodes {list(scheduler.allocation_of('job').nodes)}; "
          f"target {report.target_steps} steps")

    def second_crash() -> None:
        if not report.finished:
            orchestrator.crash_node(0)

    scenario.network.schedule(10.0, lambda: orchestrator.crash_node(2))
    scenario.network.schedule(250.0, second_crash)
    scenario.network.run(until=2000.0)

    print(f"run finished: {report.finished} "
          f"({report.completed_steps}/{report.target_steps} steps)")
    for index, event in enumerate(report.events):
        print(f"crash #{index + 1} at t={event.crash_time:.0f}s:")
        print(f"  detected in {event.detection_seconds:.0f}s "
              f"(paper: tens of seconds vs ~30 min elastic-agent timeout)")
        action = event.action
        print(f"  isolated node(s) {list(action.isolated_nodes)}, "
              f"backup(s) {list(action.replacement_nodes) or 'pool exhausted -> DP shrinks'}")
        print(f"  restored from step {event.restored_step} "
              f"({event.lost_steps} step(s) of work lost; ckpt every 3)")
        print(f"  training resumed after {event.downtime_seconds:.0f}s of downtime")
    nodes_now = scheduler.allocation_of("job").nodes
    print(f"final allocation: nodes {list(nodes_now)}")


if __name__ == "__main__":
    main()
