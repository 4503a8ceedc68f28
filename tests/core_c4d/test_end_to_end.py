"""End-to-end C4D: injected faults detected from monitoring records only.

These tests close the loop the paper's Fig. 4/5 describe: faults are
injected into the simulated cluster, collectives run, the agents ship
records to the collector, and the master must localize the injected
component without ever reading ground truth.
"""

import numpy as np

from repro.cluster.faults import FaultInjector
from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.algorithms import OpType
from repro.collective.context import CollectiveContext, RepeatedOp
from repro.collective.placement import contiguous_ranks
from repro.core.c4d.detectors import DetectorConfig
from repro.core.c4d.events import AnomalyType
from repro.core.c4d.master import C4DMaster
from repro.core.c4d.steering import JobSteeringService
from repro.netsim.network import FlowNetwork
from repro.netsim.units import GIB
from repro.telemetry.agent import AgentPlane
from repro.telemetry.collector import CentralCollector


def build(seed=11):
    net = FlowNetwork()
    topo = ClusterTopology(TESTBED_16_NODES, net, ecmp_seed=seed)
    collector = CentralCollector()
    plane = AgentPlane(collector, clock=lambda: net.now)
    ctx = CollectiveContext(topo, sink=plane)
    return net, topo, collector, ctx


def test_degraded_nic_localized_as_comm_slow():
    net, topo, collector, ctx = build()
    comm = ctx.communicator(contiguous_ranks(range(8), 8), comm_id="dp")
    FaultInjector(seed=0).degrade_nic_port(topo, node=3, nic=5, side=0, scale=0.25)
    FaultInjector(seed=0).degrade_nic_port(topo, node=3, nic=5, side=1, scale=0.25)
    runner = RepeatedOp(ctx, comm, OpType.ALLREDUCE, 1 * GIB, max_ops=5)
    runner.start()
    net.run()
    master = C4DMaster(collector, DetectorConfig(slow_window=1e9))
    anomalies = master.evaluate(net.now)
    slow = [a for a in anomalies if a.anomaly_type is AnomalyType.COMM_SLOW]
    assert slow, anomalies
    assert any(s.node == 3 and s.device == 5 for s in slow[0].suspects)


def test_straggler_node_localized_as_noncomm_slow():
    net, topo, collector, ctx = build()
    comm = ctx.communicator(contiguous_ranks(range(8), 8), comm_id="dp")
    rng = np.random.default_rng(1)
    straggler_rank = 21  # node 2, gpu 5

    counter = {"n": 0}

    def run_once():
        offsets = list(rng.uniform(0.0, 0.002, comm.size))
        offsets[straggler_rank] += 0.4
        ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB, entry_offsets=offsets, on_complete=done)

    def done(_handle):
        counter["n"] += 1
        if counter["n"] < 4:
            run_once()

    run_once()
    net.run()
    master = C4DMaster(collector)
    anomalies = master.evaluate(net.now)
    slow = [a for a in anomalies if a.anomaly_type is AnomalyType.NONCOMM_SLOW]
    assert slow
    assert any(s.node == 2 and s.device == 5 for s in slow[0].suspects)


def test_crashed_worker_detected_and_steered():
    net, topo, collector, ctx = build()
    comm = ctx.communicator(contiguous_ranks(range(4), 8), comm_id="dp")
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    # Worker (node1, gpu2) crashes before the next collective.
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB, absent_ranks=[10])
    net.schedule(120.0, lambda: None)
    net.run()
    steering = JobSteeringService(topo, backup_nodes=[15])
    master = C4DMaster(collector, steering=steering)
    anomalies = master.evaluate(net.now)
    hangs = [a for a in anomalies if a.anomaly_type is AnomalyType.NONCOMM_HANG]
    assert hangs
    assert hangs[0].suspect_nodes == [1]
    assert steering.actions[0].isolated_nodes == (1,)
    assert steering.actions[0].replacement_nodes == (15,)
    assert not topo.node(1).is_schedulable


def test_healthy_run_produces_no_anomalies():
    net, _topo, collector, ctx = build()
    comm = ctx.communicator(contiguous_ranks(range(8), 8), comm_id="dp")
    runner = RepeatedOp(ctx, comm, OpType.ALLREDUCE, 1 * GIB, max_ops=5)
    runner.start()
    net.run()
    master = C4DMaster(collector, DetectorConfig(slow_window=1e9))
    assert master.evaluate(net.now) == []


def test_detection_latency_tens_of_seconds():
    # The paper's headline: detection drops from ~30 min (elastic agent)
    # to tens of seconds.  With a 30s hang timeout and 10s evaluation
    # cadence the anomaly must be caught within ~40s of the hang.
    net, topo, collector, ctx = build()
    comm = ctx.communicator(contiguous_ranks(range(4), 8), comm_id="dp")
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB)
    net.run()
    hang_started_at = net.now
    ctx.run_op(comm, OpType.ALLREDUCE, 1 * GIB, absent_ranks=[0])
    master = C4DMaster(collector, DetectorConfig(hang_timeout=30.0))
    until = net.now + 300.0

    def evaluate_tick() -> None:
        master.evaluate(net.now)
        if net.now + 10.0 <= until:
            net.schedule(10.0, evaluate_tick)

    net.schedule(10.0, evaluate_tick)
    net.run(until=hang_started_at + 300.0)
    assert master.anomalies
    latency = master.anomalies[0].detected_at - hang_started_at
    assert latency <= 45.0
