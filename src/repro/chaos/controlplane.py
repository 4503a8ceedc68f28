"""CONTROLPLANE chaos runner: faults aimed at the master itself.

The other scenario kinds assume an immortal control plane and attack
the cluster; this runner attacks the control plane.  It drives the same
synthetic feed and agent plane as the PIPELINE kind, but the collector /
master / steering stack lives inside a journaled
:class:`~repro.controlplane.c4d_plane.C4DControlPlane`, and the scenario
plan schedules master kills, warm-standby promotions, collector
partitions and agent massacres against it.

Judgment is two-layered.  The pipeline layer is unchanged — actions
versus injected ground truth.  The resilience layer checks the
invariants the journal/fencing/lease machinery exists for:

* recovery replays the journal to a digest **bit-identical** to the one
  captured at the instant of the kill;
* no steering action is physically executed twice for one fault, even
  across incarnations (replay re-derives bookkeeping, never actions);
* a fenced-out master executes nothing after its successor takes over;
* telemetry blackouts produce **zero** false isolations — lease-derived
  coverage pushes the master into degraded mode instead;
* post-recovery recall matches the fault-free baseline run.

Every chaos timestamp sits off the feed/evaluation grids, so the
schedule-perturbation racecheck can replay these scenarios without
same-instant ties.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.chaos.scenario import (
    CHAOS_STEERING,
    EVALUATION_INTERVAL,
    HARDENED_DETECTORS,
    ChaosScenario,
    ControlPlanePlan,
)
from repro.chaos.scorecard import (
    DEFAULT_GRACE,
    ControlPlaneMetrics,
    ScenarioScorecard,
    _matching_episodes,
    _steering_action,
    score_controlplane_scenario,
    score_pipeline_scenario,
)
from repro.chaos.workload import STEP_SECONDS, SyntheticFeed
from repro.cluster.specs import ClusterSpec
from repro.cluster.topology import ClusterTopology
from repro.controlplane import C4DControlPlane, JournalStore, LeaseTable
from repro.core.c4d.steering import SteeringAction, fault_key
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import FaultTracer
from repro.telemetry.agent import AgentPlane

#: Periodic-snapshot cadence of the journaled master.
SNAPSHOT_INTERVAL = 60.0
#: Agent keep-alive cadence.
HEARTBEAT_INTERVAL = 10.0
#: Agent lease TTL.
LEASE_SECONDS = 30.0
#: Lease coverage below which the master only records verdicts.
DEGRADED_COVERAGE_THRESHOLD = 0.6
#: Steering's dedup window; a repeat inside it is a duplicate action.
DEDUP_WINDOW = 900.0


def _run(
    scenario: ChaosScenario,
    registry: MetricsRegistry,
    tracer: Optional[FaultTracer],
    grace: float,
) -> tuple[list[SteeringAction], SyntheticFeed, ControlPlaneMetrics]:
    """One full simulation: the final plane's actions, the feed, the metrics."""
    plan = scenario.controlplane
    network = FlowNetwork(metrics=registry)
    spec = ClusterSpec(num_nodes=scenario.job_nodes + scenario.backup_nodes)
    topology = ClusterTopology(spec, network, ecmp_seed=scenario.seed)
    backups = list(range(scenario.job_nodes, spec.num_nodes))
    store = JournalStore(metrics=registry)
    leases = LeaseTable(lease_seconds=LEASE_SECONDS, metrics=registry)

    # Mutable run context: the current master incarnation plus the
    # resilience counters the scorecard reports.
    ctx = {
        "down": False,
        "kills": 0,
        "digest_at_kill": None,
        "replay_digest_match": True,
        "replay_digest": "",
        "entries_replayed": 0,
        "recovery_seconds": None,
        "duplicates": 0,
        "blackout_false_isolations": 0,
        "coverage_min": 1.0,
        "seen_keys": {},
    }

    def on_action(action, coverage) -> None:
        """Physical execution hook: relaunch the job, audit the action."""
        key = fault_key(action.anomaly)
        executed_at = ctx["seen_keys"].get(key)
        if executed_at is not None and network.now - executed_at < DEDUP_WINDOW:
            ctx["duplicates"] += 1
        ctx["seen_keys"][key] = network.now
        if coverage < DEGRADED_COVERAGE_THRESHOLD and not _matching_episodes(
            _steering_action(action), scenario.episodes, grace
        ):
            ctx["blackout_false_isolations"] += len(action.isolated_nodes)
        feed.apply_action(
            action, lambda comm_id: ctx["plane"].drop_communicator(comm_id)
        )

    def build_plane(active: bool, standby: bool = False) -> C4DControlPlane:
        return C4DControlPlane(
            topology,
            backup_nodes=backups,
            store=store,
            leases=leases,
            detector_config=HARDENED_DETECTORS,
            steering_config=CHAOS_STEERING,
            steering_faults=scenario.steering_faults,
            dedup_window=DEDUP_WINDOW,
            degraded_coverage_threshold=DEGRADED_COVERAGE_THRESHOLD,
            active=active,
            standby=standby,
            action_listener=on_action,
            metrics=registry,
            tracer=tracer,
        )

    ctx["plane"] = build_plane(active=True)
    standby = build_plane(active=False, standby=True) if plan.failover else None

    agent_plane = AgentPlane(
        ctx["plane"], clock=lambda: network.now, leases=leases, metrics=registry
    )
    for node in range(scenario.job_nodes):
        agent_plane.start_agent(node)
        leases.register(node, 0.0)

    feed = SyntheticFeed(
        network,
        agent_plane,
        nodes=range(scenario.job_nodes),
        faults=scenario.faults,
        seed=scenario.seed,
    )
    if tracer is not None:
        feed.symptom_observer = tracer.observe_symptom

    # ------------------------------------------------------------------
    # Periodic timers (all offsets off the feed/evaluation grids)
    # ------------------------------------------------------------------
    def evaluate_tick() -> None:
        coverage = leases.coverage(network.now)
        ctx["coverage_min"] = min(ctx["coverage_min"], coverage)
        if not ctx["down"]:
            ctx["plane"].evaluate(network.now)
        if network.now + EVALUATION_INTERVAL <= scenario.duration:
            network.schedule(EVALUATION_INTERVAL, evaluate_tick)

    def heartbeat_tick() -> None:
        agent_plane.beat_all(network.now)
        if network.now + HEARTBEAT_INTERVAL <= scenario.duration:
            network.schedule(HEARTBEAT_INTERVAL, heartbeat_tick)

    def snapshot_tick() -> None:
        if not ctx["down"]:
            ctx["plane"].snapshot()
        if network.now + SNAPSHOT_INTERVAL <= scenario.duration:
            network.schedule(SNAPSHOT_INTERVAL, snapshot_tick)

    network.schedule(EVALUATION_INTERVAL + 0.1 * STEP_SECONDS, evaluate_tick)
    network.schedule(HEARTBEAT_INTERVAL + 2.7, heartbeat_tick)
    network.schedule(SNAPSHOT_INTERVAL + 0.9, snapshot_tick)

    # ------------------------------------------------------------------
    # Scheduled control-plane faults
    # ------------------------------------------------------------------
    if plan.kill_at is not None and plan.recover_at is not None:

        def kill() -> None:
            ctx["down"] = True
            ctx["kills"] += 1
            ctx["digest_at_kill"] = ctx["plane"].state_digest()
            # Agents lose their master: records buffer node-locally and
            # heartbeats stop arriving.
            agent_plane.suspend()

        def recover() -> None:
            old = ctx["plane"]
            successor = standby if standby is not None else build_plane(active=False)
            info = successor.recover(now=network.now)
            ctx["replay_digest"] = info["digest"]
            ctx["replay_digest_match"] = info["digest"] == ctx["digest_at_kill"]
            ctx["entries_replayed"] += info["entries_replayed"]
            ctx["recovery_seconds"] = network.now - plan.kill_at
            ctx["plane"] = successor
            ctx["down"] = False
            ctx["demoted"] = (old, len(old.steering.executed_actions))
            agent_plane.retarget(successor)
            agent_plane.resume(network.now)

        network.schedule(plan.kill_at, kill)
        network.schedule(plan.recover_at, recover)

    if plan.stale_poke_at is not None:

        def stale_poke() -> None:
            demoted = ctx.get("demoted")
            if demoted is None:
                return
            old_plane, _ = demoted
            # The zombie write: a fenced-out master re-attempting an
            # evaluation.  It must be rejected without appending.
            old_plane.evaluate(network.now)
            old_plane.snapshot()

        network.schedule(plan.stale_poke_at, stale_poke)

    if plan.partition is not None:
        start, end = plan.partition
        network.schedule(start, agent_plane.suspend)
        network.schedule(end, lambda: agent_plane.resume(network.now))

    if plan.massacre_window is not None:
        start, end = plan.massacre_window

        def massacre() -> None:
            for node in plan.massacre_nodes:
                agent_plane.kill_agent(node)

        def revive() -> None:
            for node in plan.massacre_nodes:
                agent_plane.revive_agent(node, network.now)

        network.schedule(start, massacre)
        network.schedule(end, revive)

    feed.start()
    network.run(until=scenario.duration)

    final = ctx["plane"]
    stale_executed = 0
    demoted = ctx.get("demoted")
    if demoted is not None:
        old_plane, executed_at_demotion = demoted
        stale_executed = len(old_plane.steering.executed_actions) - executed_at_demotion
    resilience = ControlPlaneMetrics(
        kills=ctx["kills"],
        recoveries=store.recoveries,
        failovers=store.failovers,
        replay_digest_match=ctx["replay_digest_match"],
        replay_digest=ctx["replay_digest"],
        entries_replayed=ctx["entries_replayed"],
        journal_entries=len(store.entries),
        snapshots=len(store.snapshots),
        recovery_seconds=ctx["recovery_seconds"],
        duplicate_actions=ctx["duplicates"],
        fencing_rejections=store.fence_rejections,
        stale_actions_executed=stale_executed,
        blackout_false_isolations=ctx["blackout_false_isolations"],
        coverage_min=ctx["coverage_min"],
        backfilled_records=agent_plane.backfilled_records,
        # Filled in by the caller from the fault-free run.
        baseline_recall=0.0,
    )
    return list(final.steering.actions), feed, resilience


def run_controlplane_scenario(
    scenario: ChaosScenario,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[FaultTracer] = None,
    grace: float = DEFAULT_GRACE,
) -> ScenarioScorecard:
    """Execute one CONTROLPLANE scenario and judge it.

    The scenario runs twice: once with every control-plane fault
    disabled (a private registry/tracer — the recall baseline), then
    for real.  Both runs share seeds, so any recall the faulted run
    loses is attributable to the control-plane faults alone.
    """
    if scenario.controlplane is None:
        raise ValueError(f"scenario {scenario.name} has no controlplane plan")
    registry = get_registry(metrics)

    calm_scenario = replace(scenario, controlplane=ControlPlanePlan())
    baseline_actions, _, _ = _run(calm_scenario, MetricsRegistry(), None, grace)
    baseline_recall = score_pipeline_scenario(
        calm_scenario, baseline_actions, grace=grace
    ).recall

    actions, feed, resilience = _run(scenario, registry, tracer, grace)
    return score_controlplane_scenario(
        scenario,
        actions,
        replace(resilience, baseline_recall=baseline_recall),
        steps_completed=feed.steps_completed,
        relaunches=feed.relaunches,
        grace=grace,
    )


__all__ = ["run_controlplane_scenario"]
