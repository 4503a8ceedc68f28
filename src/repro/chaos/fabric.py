"""FABRIC chaos scenarios: the C4P control plane under adversarial link faults.

Nothing in the execution path is mocked: a real
:class:`~repro.core.c4p.master.C4PMaster` (with its registry, prober and
link health state machine) allocates QPs for a synthetic multi-tenant
load on the 16-node testbed fabric, one long-running simulated flow per
QP.  The scenario's :class:`~repro.chaos.scenario.FabricPlan` then kills
and restores links on schedule — announced (out-of-band notification,
the Fig. 12 fast path) or silent (the master must catch it through its
periodic incremental re-probe) — while the runner measures what the
ground truth alone can judge:

* **residual QPs** — flows still crossing a physically dead link when a
  down event's migration deadline expires;
* **reroute latency** — down event to the last victim QP's migration;
* **hold-down violations** — placements onto a flapping link while the
  flap-damping guard window is open;
* **plane violations** — migrations that crossed physical planes;
* **spine imbalance** and **throughput recovery** — the Fig. 12b
  post-fault balance and bandwidth numbers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.chaos.scenario import ChaosScenario, ScenarioKind
from repro.chaos.scorecard import FabricMetrics, ScenarioScorecard, score_fabric_scenario
from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.selectors import PathRequest
from repro.core.c4p.master import C4PMaster
from repro.netsim.flows import Flow
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import LATENCY_BUCKETS, FaultTracer

#: Effectively infinite transfer: fabric flows run for the whole scenario.
_FLOW_SIZE = 1e18
#: Cadence of the master's periodic :meth:`~C4PMaster.maintenance` passes.
REPROBE_INTERVAL = 15.0
#: Synthetic tenant load placed through the master before faults.
CONNECTIONS = 48
QPS_PER_CONNECTION = 2
#: Throughput / residual sampling cadence.
SAMPLE_INTERVAL = 5.0
#: Fraction of pre-fault throughput that counts as recovered.
RECOVERY_FRACTION = 0.90


def run_fabric_scenario(
    scenario: ChaosScenario,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[FaultTracer] = None,
) -> ScenarioScorecard:
    """Execute one FABRIC scenario end to end and score it.

    ``metrics``/``tracer`` attach the observability plane: the registry
    receives the instrumented components' series plus the runner's
    ``fabric_reroute_latency_seconds`` histogram, and each scheduled
    ``down`` event gets a fault span traced inject → detect (the
    out-of-band notification, or the maintenance pass that caught a
    silent failure) → steer (first victim migration) → recover (last
    victim migration).
    """
    if scenario.kind is not ScenarioKind.FABRIC or scenario.fabric is None:
        raise ValueError(f"{scenario.name} is not a fabric scenario")
    plan = scenario.fabric

    registry = get_registry(metrics)
    if tracer is None:
        tracer = FaultTracer(metrics=registry)
    m_reroute = registry.histogram(
        "fabric_reroute_latency_seconds",
        "Down event to last victim QP migrated",
        buckets=LATENCY_BUCKETS,
    )
    network = FlowNetwork(metrics=registry)
    spec = TESTBED_16_NODES
    topology = ClusterTopology(spec, network, ecmp_seed=scenario.seed)
    master = C4PMaster(topology, metrics=registry)
    rng = np.random.default_rng(scenario.seed)

    # ------------------------------------------------------------------
    # Tenant load: one persistent flow per allocated QP.
    # ------------------------------------------------------------------
    flows: dict[int, Flow] = {}
    home_side: dict[int, int] = {}
    for index in range(CONNECTIONS):
        src = int(rng.integers(spec.num_nodes))
        dst = int(rng.integers(spec.num_nodes - 1))
        if dst >= src:
            dst += 1
        request = PathRequest(
            comm_id=f"fabric-{index}",
            job_id=f"chaos-{index % 4}",
            src_node=src,
            src_nic=plan.nic,
            dst_node=dst,
            dst_nic=plan.nic,
            num_qps=QPS_PER_CONNECTION,
        )
        for alloc in master.allocate(request):
            flow = Flow(
                flow_id=f"qp{alloc.qp_num}",
                path=list(alloc.path),
                size=_FLOW_SIZE,
                metadata={"request": request, "qp": alloc},
            )
            network.add_flow(flow)
            flows[alloc.qp_num] = flow
            home_side[alloc.qp_num] = alloc.choice.src_side

    # ------------------------------------------------------------------
    # Observers: migrations, hold-down guard, throughput samples.
    # ------------------------------------------------------------------
    migration_log: list[tuple[float, int]] = []
    violations = {"holddown": 0, "plane": 0}
    flap_guards = {link: (start, end) for link, start, end in plan.flap_guards}

    def guarded_links(now: float) -> list[tuple]:
        return [
            link
            for link, (start, end) in flap_guards.items()
            if start <= now <= end
        ]

    def on_migrate(request: PathRequest, alloc) -> None:
        now = network.now
        migration_log.append((now, alloc.qp_num))
        if alloc.choice.src_side != home_side.get(alloc.qp_num, alloc.choice.src_side):
            violations["plane"] += 1
        if set(guarded_links(now)).intersection(alloc.path):
            violations["holddown"] += 1
        flow = flows.get(alloc.qp_num)
        if flow is not None:
            flow.reroute(alloc.path)

    master.migration_listener = on_migrate

    samples: list[tuple[float, float]] = []

    def sample() -> None:
        rates = network.compute_rates()
        samples.append((network.now, sum(rates.values())))
        for link in guarded_links(network.now):
            violations["holddown"] += len(master.qps_on_link(link))
        if network.now + SAMPLE_INTERVAL <= scenario.duration:
            network.schedule(SAMPLE_INTERVAL, sample)

    # Phase-shifted off the fault schedule's grid: fault times and
    # sampling cadences are both round numbers, and a sampler sharing an
    # instant with a `down` event would read pre- or post-fault
    # throughput depending on timer tie-breaking alone (a racecheck
    # divergence).  Observers must never share an instant with the
    # schedule they observe.
    network.schedule(SAMPLE_INTERVAL * 0.5, sample)

    # ------------------------------------------------------------------
    # The fault schedule (ground truth).
    # ------------------------------------------------------------------
    event_records: list[dict] = []
    residual_checks: list[int] = []
    stranded_ever: set[int] = set()
    #: Dead link -> fault id of the down event that killed it (silent
    #: failures earn their ``detect`` stage at the maintenance pass that
    #: finds them).
    link_to_fault: dict[tuple, str] = {}

    def ground_truth_residual() -> int:
        """QPs whose flow still crosses a physically dead link."""
        return sum(
            1
            for flow in flows.values()
            if any(not network.link(link_id).is_up for link_id in flow.path)
        )

    fault_ids: list[Optional[str]] = []
    down_index = 0
    for event in plan.events:
        if event.action != "down":
            fault_ids.append(None)
            continue
        fault_id = f"{scenario.name}/down{down_index}"
        down_index += 1
        fault_ids.append(fault_id)
        # A later "up" restoring any of the same links closes the
        # activity window; a permanent failure stays open.
        window_end = min(
            (
                up.time
                for up in plan.events
                if up.action == "up"
                and up.time > event.time
                and set(up.links) & set(event.links)
            ),
            default=float("inf"),
        )
        tracer.register_fault(
            fault_id,
            kind="link_down" if event.notify else "link_down_silent",
            victims=tuple(str(link) for link in event.links),
            injected_at=event.time,
            windows=((event.time, window_end),),
        )

    for event, fault_id in zip(plan.events, fault_ids, strict=True):

        def fire(event=event, fault_id=fault_id) -> None:
            if event.action == "up":
                for link in event.links:
                    network.restore_link(link)
                return
            victims: set[int] = set()
            for link in event.links:
                victims.update(master.qps_on_link(link))
                link_to_fault[link] = fault_id
            event_records.append(
                {"time": network.now, "victims": victims, "fault_id": fault_id}
            )
            for link in event.links:
                network.fail_link(link)
            if victims:
                # Victim flows stall the instant the link dies: that
                # stall is the first fault-attributable signal.
                tracer.stage(fault_id, "first_record", network.now)
            if event.notify:
                for link in event.links:
                    report = master.notify_link_failure(link)
                    stranded_ever.update(report.stranded)
                tracer.stage(fault_id, "detect", network.now, via="notification")

        network.schedule_at(event.time, fire)
        if event.action == "down":
            # The deadline audit runs a hair past the deadline instant:
            # flapping schedules put other links' `fire` timers on the
            # same round timestamps, and whether the audit sees their
            # stalls must not hinge on tie-break order (deadline
            # inclusive either way — migrations due at the deadline have
            # already happened).
            network.schedule_at(
                event.time + plan.migration_deadline + 1e-3,
                lambda: residual_checks.append(ground_truth_residual()),
            )

    # Periodic incremental re-probe: catches silent failures, walks
    # quarantined links back through probation.
    reports = []

    def maintenance_tick() -> None:
        report = master.maintenance(network.now)
        reports.append(report)
        for link in report.newly_dead:
            fault_id = link_to_fault.get(link)
            if fault_id is not None:
                tracer.stage(fault_id, "detect", network.now, via="reprobe")
        for drain in report.drains:
            stranded_ever.update(drain.stranded)
        if network.now + REPROBE_INTERVAL <= scenario.duration:
            network.schedule(REPROBE_INTERVAL, maintenance_tick)

    # The first tick is deliberately phase-shifted off the interval grid
    # so silent failures scheduled on round timestamps are detected a
    # fraction of an interval later, as in production — not at the very
    # instant they occur.
    network.schedule(REPROBE_INTERVAL * 0.6, maintenance_tick)

    network.run(until=scenario.duration)

    # ------------------------------------------------------------------
    # Judgment.
    # ------------------------------------------------------------------
    down_events = plan.down_events
    latencies: list[float] = []
    for record in event_records:
        victims = record["victims"]
        if not victims:
            continue
        moved = [t for t, qp in migration_log if qp in victims and t >= record["time"]]
        if moved:
            latency = max(moved) - record["time"]
            latencies.append(latency)
            m_reroute.observe(latency)
            fault_id = record["fault_id"]
            tracer.stage(fault_id, "steer", min(moved))
            tracer.stage(fault_id, "recover", max(moved), migrated=len(moved))

    pre_fault = 0.0
    if down_events:
        first_down = down_events[0].time
        before = [thr for t, thr in samples if t < first_down]
        pre_fault = before[-1] if before else 0.0

    recovery_time: Optional[float] = None
    if down_events and pre_fault > 0:
        last_down = down_events[-1].time
        for t, thr in samples:
            if t >= last_down and thr >= RECOVERY_FRACTION * pre_fault:
                recovery_time = t - last_down
                break

    rail = topology.rail_of(plan.nic)
    spine_loads = []
    for spine in range(spec.spines_per_rail):
        uplinks = [
            ClusterTopology.leaf_up(rail, side, spine, k)
            for side in (0, 1)
            for k in range(spec.uplink_ports_per_spine)
        ]
        if all(link in master.registry.dead_links for link in uplinks):
            continue
        spine_loads.append(sum(master.registry.load_of(link) for link in uplinks))
    mean_load = sum(spine_loads) / len(spine_loads) if spine_loads else 0.0
    imbalance = max(spine_loads) / mean_load if mean_load > 0 else 1.0

    metrics = FabricMetrics(
        qps_total=len(flows),
        migrations=len(migration_log),
        stranded=len(stranded_ever),
        residual_after_deadline=max(residual_checks) if residual_checks else 0,
        reroute_latency_mean=sum(latencies) / len(latencies) if latencies else 0.0,
        reroute_latency_max=max(latencies) if latencies else 0.0,
        holddown_violations=violations["holddown"],
        plane_violations=violations["plane"],
        spine_imbalance=imbalance,
        pre_fault_throughput=pre_fault,
        recovery_time=recovery_time,
        recovered_links=sum(len(r.recovered) for r in reports),
    )
    return score_fabric_scenario(scenario, metrics)
