#!/usr/bin/env python3
"""C4D demo: inject hardware faults, watch them get localized and steered.

Reproduces the paper's Fig. 4/5 recovery loop end-to-end on a simulated
cluster:

1. a training-style allreduce workload runs with full ACCL monitoring
   (communicator / operation / transport records flowing through
   per-node C4 agents to the central collector);
2. three faults are injected — a degraded NIC port (communication slow),
   a straggler GPU (non-communication slow) and a crashed worker
   (non-communication hang);
3. the C4D master detects each syndrome from the records alone,
   localizes the faulty component, and the steering service isolates the
   node and pulls in a backup.

Run:  python examples/fault_detection_demo.py
"""

import numpy as np

from repro.cluster.faults import FaultInjector
from repro.collective.algorithms import OpType
from repro.collective.context import CollectiveContext, RepeatedOp
from repro.collective.placement import contiguous_ranks
from repro.core.c4d import C4DMaster, DetectorConfig, JobSteeringService
from repro.netsim.units import GIB
from repro.telemetry.agent import AgentPlane
from repro.telemetry.collector import CentralCollector
from repro.workloads.generator import build_cluster


def scenario_comm_slow() -> None:
    print("--- communication slow: degraded NIC port on node3/nic5 ---")
    scenario = build_cluster(ecmp_seed=11)
    collector = CentralCollector()
    plane = AgentPlane(collector, clock=lambda: scenario.network.now)
    context = CollectiveContext(scenario.topology, sink=plane)
    comm = context.communicator(contiguous_ranks(range(8), 8), comm_id="dp")

    injector = FaultInjector(seed=0)
    injector.degrade_nic_port(scenario.topology, node=3, nic=5, side=0, scale=0.25)
    injector.degrade_nic_port(scenario.topology, node=3, nic=5, side=1, scale=0.25)

    runner = RepeatedOp(context, comm, OpType.ALLREDUCE, 1 * GIB, max_ops=5)
    runner.start()
    scenario.network.run()

    master = C4DMaster(collector, DetectorConfig(slow_window=1e9))
    for anomaly in master.evaluate(scenario.network.now):
        suspects = ", ".join(str(s) for s in anomaly.suspects)
        print(f"  detected {anomaly.anomaly_type.value}: suspects [{suspects}] "
              f"(max delay ratio {anomaly.evidence.get('max_ratio', 0):.1f}x)")


def scenario_straggler() -> None:
    print("--- non-communication slow: straggler GPU node2/gpu5 ---")
    scenario = build_cluster(ecmp_seed=11)
    collector = CentralCollector()
    plane = AgentPlane(collector, clock=lambda: scenario.network.now)
    context = CollectiveContext(scenario.topology, sink=plane)
    comm = context.communicator(contiguous_ranks(range(8), 8), comm_id="dp")
    rng = np.random.default_rng(1)

    state = {"ops": 0}

    def run_once() -> None:
        offsets = list(rng.uniform(0.0, 0.002, comm.size))
        offsets[21] += 0.4  # rank 21 = node2/gpu5 keeps arriving late
        context.run_op(comm, OpType.ALLREDUCE, 1 * GIB, entry_offsets=offsets,
                       on_complete=on_done)

    def on_done(_handle) -> None:
        state["ops"] += 1
        if state["ops"] < 4:
            run_once()

    run_once()
    scenario.network.run()
    master = C4DMaster(collector)
    for anomaly in master.evaluate(scenario.network.now):
        suspects = ", ".join(str(s) for s in anomaly.suspects)
        print(f"  detected {anomaly.anomaly_type.value}: suspects [{suspects}] "
              f"(lateness {anomaly.evidence.get('lateness', 0):.2f}s)")


def scenario_crash_and_steer() -> None:
    print("--- non-communication hang: worker on node1 crashes; steering reacts ---")
    scenario = build_cluster(ecmp_seed=11)
    collector = CentralCollector()
    plane = AgentPlane(collector, clock=lambda: scenario.network.now)
    context = CollectiveContext(scenario.topology, sink=plane)
    comm = context.communicator(contiguous_ranks(range(4), 8), comm_id="dp")

    context.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    scenario.network.run()
    # Worker (node1, gpu2) dies before the next collective: its launch
    # record never appears.
    context.run_op(comm, OpType.ALLREDUCE, 1 * GIB, absent_ranks=[10])
    scenario.network.schedule(120.0, lambda: None)
    scenario.network.run()

    steering = JobSteeringService(scenario.topology, backup_nodes=[15])
    master = C4DMaster(collector, steering=steering)
    fresh = master.evaluate(scenario.network.now)
    for anomaly in fresh:
        suspects = ", ".join(str(s) for s in anomaly.suspects)
        print(f"  detected {anomaly.anomaly_type.value}: suspects [{suspects}]")
    for action in steering.actions:
        print(f"  steering: isolated nodes {list(action.isolated_nodes)}, "
              f"backups {list(action.replacement_nodes)}, "
              f"job ready at t={action.ready_at:.0f}s")


def main() -> None:
    scenario_comm_slow()
    scenario_straggler()
    scenario_crash_and_steer()


if __name__ == "__main__":
    main()
