"""The chaos feed loop, and the CONTROLPLANE runner built on it.

:func:`run_feed_loop` is the closed loop both the PIPELINE and the
CONTROLPLANE kinds run: a :class:`~repro.chaos.workload.SyntheticFeed`
plays the monitored job, the agent plane ships its records to the C4D
master side, a phase-shifted tick evaluates, and every executed
steering action tears the incarnation down and relaunches it.  The
scenario's ``controlplane`` plan picks the master side:

* no plan (PIPELINE): a bare collector, the debounced
  :class:`~repro.core.c4d.master.C4DMaster` and the hardened
  :class:`~repro.core.c4d.steering.JobSteeringService`, fed over the
  scenario's (optionally lossy) channel;
* a plan (CONTROLPLANE): the same stack inside a journaled
  :class:`~repro.controlplane.c4d_plane.C4DControlPlane` under agent
  leases, with heartbeat and snapshot timers, and the plan's master
  kills, warm-standby promotions, collector partitions and agent
  massacres scheduled against it.

A control-plane run is judged in two layers.  The pipeline layer is the
PIPELINE judgment — actions versus injected ground truth.  The
resilience layer checks the invariants the journal/fencing/lease
machinery exists for:

* recovery replays the journal to a digest **bit-identical** to the one
  captured at the instant of the kill;
* no steering action is physically executed twice for one fault, even
  across incarnations (replay re-derives bookkeeping, never actions);
* a fenced-out master executes nothing after its successor takes over;
* telemetry blackouts produce **zero** false isolations — lease-derived
  coverage pushes the master into degraded mode instead;
* recall matches the recall baseline: the same scenario on the bare
  loop, which with no fault scheduled judges exactly like the journaled
  one (``tests/chaos/test_controlplane.py``).

Every chaos timestamp sits off the feed/evaluation grids, so the
schedule-perturbation racecheck can replay these scenarios without
same-instant ties.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Optional

from repro.chaos.scenario import (
    CHAOS_STEERING,
    EVALUATION_INTERVAL,
    HARDENED_DETECTORS,
    ChaosScenario,
    ScenarioKind,
)
from repro.chaos.scorecard import (
    ControlPlaneMetrics,
    ScenarioScorecard,
    _action_targets,
    matching_episodes,
    score_controlplane_scenario,
    score_pipeline_scenario,
    trace_symptom,
    trace_verdict,
)
from repro.chaos.workload import STEP_SECONDS, SyntheticFeed
from repro.cluster.specs import ClusterSpec
from repro.cluster.topology import ClusterTopology
from repro.controlplane import C4DControlPlane, JournalStore, LeaseTable
from repro.core.c4d.master import C4DMaster
from repro.core.c4d.steering import JobSteeringService, SteeringAction, fault_key
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import FaultTracer
from repro.telemetry.agent import AgentPlane
from repro.telemetry.collector import CentralCollector
from repro.telemetry.unreliable import UnreliableChannel

#: Periodic-snapshot cadence of the journaled master.
SNAPSHOT_INTERVAL = 60.0
#: Agent keep-alive cadence.
HEARTBEAT_INTERVAL = 10.0
#: Agent lease TTL.
LEASE_SECONDS = 30.0


def run_feed_loop(
    scenario: ChaosScenario,
    registry: MetricsRegistry,
    tracer: Optional[FaultTracer],
) -> tuple[ScenarioScorecard, Optional[ControlPlaneMetrics]]:
    """Run the scenario's closed loop once and judge its steering actions.

    Returns the pipeline scorecard and, when the scenario has a
    control-plane plan, its resilience metrics with ``baseline_recall``
    left at zero for the caller to fill in.
    """
    plan = scenario.controlplane
    network = FlowNetwork(metrics=registry)
    spec = ClusterSpec(num_nodes=scenario.job_nodes + scenario.backup_nodes)
    topology = ClusterTopology(spec, network, ecmp_seed=scenario.seed)
    backups = list(range(scenario.job_nodes, spec.num_nodes))
    channel = (
        UnreliableChannel(network, scenario.channel, seed=scenario.seed)
        if scenario.channel is not None
        else None
    )

    # What the control-plane timers and the action audit record.
    down = False
    coverage_min = 1.0
    duplicates = 0
    blackout_false_isolations = 0
    last_executed: dict = {}
    digest_at_kill: Optional[str] = None
    recovered: Optional[dict] = None
    demoted: Optional[tuple[C4DControlPlane, int]] = None

    def on_action(action: SteeringAction, coverage: float) -> None:
        """Audit one physically executed action, then relaunch the job.

        Closing the loop: the feed tears the current incarnation down
        and relaunches on the survivors plus replacements once the
        action completes.
        """
        nonlocal duplicates, blackout_false_isolations
        if plan is not None:
            key = fault_key(action.anomaly)
            last = last_executed.get(key)
            if last is not None and network.now - last < sink.steering.dedup_window:
                duplicates += 1
            last_executed[key] = network.now
            if coverage < C4DMaster.DEGRADED_COVERAGE_THRESHOLD and not matching_episodes(
                scenario.episodes, action.anomaly.detected_at, _action_targets(action)
            ):
                blackout_false_isolations += len(action.isolated_nodes)
        feed.apply_action(action, sink.drop_communicator)

    # The master side the agents feed.  With a plan, ``sink`` is the live
    # plane and moves to its successor on recovery.
    if plan is None:
        leases = None
        sink = CentralCollector(metrics=registry)
        steering = JobSteeringService(
            topology,
            backup_nodes=backups,
            config=CHAOS_STEERING,
            faults=scenario.steering_faults,
            metrics=registry,
        )
        master = C4DMaster(sink, HARDENED_DETECTORS, steering=steering, metrics=registry)
    else:
        store = JournalStore(metrics=registry)
        leases = LeaseTable(lease_seconds=LEASE_SECONDS, metrics=registry)

        def build_plane(active: bool, standby: bool = False) -> C4DControlPlane:
            return C4DControlPlane(
                topology,
                backup_nodes=backups,
                store=store,
                leases=leases,
                detector_config=HARDENED_DETECTORS,
                steering_config=CHAOS_STEERING,
                steering_faults=scenario.steering_faults,
                active=active,
                standby=standby,
                metrics=registry,
            )

        sink = build_plane(active=True)
        standby = build_plane(active=False, standby=True) if plan.failover else None

    agents = AgentPlane(
        sink, clock=lambda: network.now, channel=channel, leases=leases,
        metrics=registry,
    )
    if plan is not None:
        for node in range(scenario.job_nodes):
            agents.start_agent(node)
            leases.register(node, 0.0)
    feed = SyntheticFeed(
        network,
        agents,
        nodes=range(scenario.job_nodes),
        faults=scenario.faults,
        seed=scenario.seed,
    )
    if tracer is not None:
        feed.symptom_observer = partial(trace_symptom, tracer, scenario)

    def evaluate_tick() -> None:
        nonlocal coverage_min
        coverage = 1.0
        if plan is not None:
            coverage = leases.coverage(network.now)
            coverage_min = min(coverage_min, coverage)
        if plan is None or not down:
            executed = (steering if plan is None else sink.steering).executed_actions
            before = len(executed)
            (master if plan is None else sink).evaluate(network.now)
            for action in executed[before:]:
                on_action(action, coverage)
        if network.now + EVALUATION_INTERVAL <= scenario.duration:
            network.schedule(EVALUATION_INTERVAL, evaluate_tick)

    def heartbeat_tick() -> None:
        agents.beat_all(network.now)
        if network.now + HEARTBEAT_INTERVAL <= scenario.duration:
            network.schedule(HEARTBEAT_INTERVAL, heartbeat_tick)

    def snapshot_tick() -> None:
        if not down:
            sink.snapshot()
        if network.now + SNAPSHOT_INTERVAL <= scenario.duration:
            network.schedule(SNAPSHOT_INTERVAL, snapshot_tick)

    def kill() -> None:
        nonlocal down, digest_at_kill
        down = True
        digest_at_kill = sink.state_digest()
        # Agents lose their master: records buffer node-locally and
        # heartbeats stop arriving.
        agents.suspend()

    def recover() -> None:
        nonlocal down, sink, recovered, demoted
        successor = standby if standby is not None else build_plane(active=False)
        recovered = successor.recover(now=network.now)
        demoted = (sink, len(sink.steering.executed_actions))
        sink = successor
        down = False
        agents.retarget(successor)
        agents.resume(network.now)

    def stale_poke() -> None:
        # The zombie write: a fenced-out master re-attempting an
        # evaluation.  It must be rejected without appending.
        if demoted is not None:
            demoted[0].evaluate(network.now)
            demoted[0].snapshot()

    def massacre() -> None:
        for node in plan.massacre_nodes:
            agents.kill_agent(node)

    def revive() -> None:
        for node in plan.massacre_nodes:
            agents.revive_agent(node, network.now)

    # The evaluation grid is phase-shifted off the feed's step grid (both
    # are round numbers, so exact-interval ticks would share instants
    # with step emission): whether an evaluation — and the steering halt
    # it can trigger — lands before or after a same-instant step must not
    # depend on timer tie-breaking.  The master evaluates a fraction of a
    # step after each interval, as a control plane asynchronous to the
    # data path would.  The control-plane timers and faults sit off both
    # grids too.
    network.schedule(EVALUATION_INTERVAL + 0.1 * STEP_SECONDS, evaluate_tick)
    if plan is not None:
        network.schedule(HEARTBEAT_INTERVAL + 2.7, heartbeat_tick)
        network.schedule(SNAPSHOT_INTERVAL + 0.9, snapshot_tick)
        if plan.kill_at is not None and plan.recover_at is not None:
            network.schedule(plan.kill_at, kill)
            network.schedule(plan.recover_at, recover)
        if plan.stale_poke_at is not None:
            network.schedule(plan.stale_poke_at, stale_poke)
        if plan.partition is not None:
            network.schedule(plan.partition[0], agents.suspend)
            network.schedule(plan.partition[1], lambda: agents.resume(network.now))
        if plan.massacre_window is not None:
            network.schedule(plan.massacre_window[0], massacre)
            network.schedule(plan.massacre_window[1], revive)

    feed.start()
    network.run(until=scenario.duration)
    if tracer is not None:
        # After a kill or failover the final master holds every
        # incarnation's history: recovery restores and replays its
        # predecessor's.
        for anomaly in (master if plan is None else sink.master).anomalies:
            trace_verdict(
                tracer,
                scenario,
                anomaly.detected_at,
                anomaly.suspect_nodes,
                kind=anomaly.anomaly_type.value,
            )

    card = score_pipeline_scenario(
        scenario,
        (steering if plan is None else sink.steering).actions,
        channel_stats=channel.stats() if channel is not None else None,
        steps_completed=feed.steps_completed,
        relaunches=feed.relaunches,
        tracer=tracer,
    )
    if plan is None:
        return card, None
    stale_executed = (
        len(demoted[0].steering.executed_actions) - demoted[1] if demoted else 0
    )
    return card, ControlPlaneMetrics(
        kills=int(digest_at_kill is not None),
        recoveries=store.recoveries,
        failovers=store.failovers,
        replay_digest_match=recovered is None or recovered["digest"] == digest_at_kill,
        replay_digest=recovered["digest"] if recovered is not None else "",
        entries_replayed=recovered["entries_replayed"] if recovered is not None else 0,
        journal_entries=len(store),
        snapshots=len(store.snapshots),
        recovery_seconds=(
            plan.recover_at - plan.kill_at if recovered is not None else None
        ),
        duplicate_actions=duplicates,
        fencing_rejections=store.fence_rejections,
        stale_actions_executed=stale_executed,
        blackout_false_isolations=blackout_false_isolations,
        coverage_min=coverage_min,
        backfilled_records=agents.backfilled_records,
        # Filled in by the caller from the recall baseline.
        baseline_recall=0.0,
    )


def run_controlplane_scenario(
    scenario: ChaosScenario,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[FaultTracer] = None,
) -> ScenarioScorecard:
    """Execute one CONTROLPLANE scenario and judge it.

    The recall baseline runs first: the same scenario as a PIPELINE run
    on the bare loop, with a private registry and no tracer.  Both runs
    share seeds, so any recall the faulted run loses is attributable to
    the control-plane faults alone.
    """
    if scenario.controlplane is None:
        raise ValueError(f"scenario {scenario.name} has no controlplane plan")
    calm = replace(scenario, kind=ScenarioKind.PIPELINE, controlplane=None)
    baseline, _ = run_feed_loop(calm, MetricsRegistry(), None)
    card, resilience = run_feed_loop(scenario, get_registry(metrics), tracer)
    return score_controlplane_scenario(
        card, replace(resilience, baseline_recall=baseline.recall)
    )


__all__ = ["run_controlplane_scenario", "run_feed_loop"]
