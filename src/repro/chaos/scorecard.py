"""Campaign scoring: pipeline output judged against injected ground truth.

The chaos harness knows exactly which faults it injected (the scenario's
:class:`~repro.chaos.scenario.Episode` list) and observes exactly what
the pipeline did (the steering service's actions, the recovery
orchestrator's events).  The scorecard joins the two:

* an action is **true** when at least one node it targeted belongs to an
  episode active at detection time (stretched by ``DEFAULT_GRACE`` — a
  flapping window may close while the debounce is still counting);
* an action is **false** otherwise, and each node it isolated counts as
  a false isolation (healthy capacity destroyed by ghost telemetry);
* an **isolation storm** is the same (episode, node) pair isolated more
  than once — the failure mode hysteresis exists to prevent;
* **MTTR** is fault onset to the job running again (``ready_at`` of the
  first matching action);
* **wasted backups** are spares consumed without curing a real fault:
  dead-on-arrival replacements plus replacements issued by false
  actions.

:func:`matching_episodes` is the harness's one ground-truth match.  The
scorer (which also stamps ``steer`` and ``recover`` on the fault spans),
:func:`trace_verdict`, :func:`trace_symptom` and the blackout audit all
call it, so a :class:`~repro.obs.trace.FaultTracer` only records what
they decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from repro.chaos.scenario import ChaosScenario, Episode
from repro.core.c4d.steering import SteeringAction
from repro.obs.trace import FaultTracer
from repro.training.recovery import RecoveryReport


@dataclass(frozen=True)
class EpisodeOutcome:
    """How the pipeline handled one ground-truth episode."""

    episode_id: str
    kind: str
    nodes: tuple[int, ...]
    onset: float
    detected: bool
    #: Detection time of the first matching action (None when missed).
    detected_at: Optional[float] = None
    #: Onset → job-running-again of the first matching action.
    mttr_seconds: Optional[float] = None
    #: Isolations per node of this episode (storm when any exceeds 1).
    isolations_per_node: dict[int, int] = field(default_factory=dict)

    @property
    def storm_nodes(self) -> tuple[int, ...]:
        """Nodes of this episode isolated more than once."""
        return tuple(
            sorted(n for n, count in self.isolations_per_node.items() if count > 1)
        )


@dataclass(frozen=True)
class FabricMetrics:
    """Traffic-engineering judgment of one FABRIC scenario.

    The runner knows the injected link schedule (ground truth) and
    observes the master's books plus the simulated flows, so every
    number here is measured, not inferred:

    * ``residual_after_deadline`` — worst-case count of QPs whose flows
      still crossed a physically dead link when a down event's migration
      deadline expired (the Fig. 12 acceptance number: must be zero);
    * ``reroute_latency_*`` — seconds from a down event to the last
      victim QP's migration (zero when the out-of-band notification
      drains synchronously; bounded by the re-probe interval for silent
      failures);
    * ``holddown_violations`` — QP placements onto a flapping link
      inside the guard window (flap damping must keep this at zero);
    * ``plane_violations`` — migrations that crossed physical planes;
    * ``spine_imbalance`` — max/mean allocated QP load across live
      spines at scenario end (post-fault balance, Fig. 12b);
    * ``recovery_time`` — seconds from the last down event until
      throughput first returned to ``recovery_fraction`` of its
      pre-fault level (None when it never did);
    * ``recovered_links`` — dead links re-admitted through hold-down +
      probation by scenario end.
    """

    qps_total: int
    migrations: int
    stranded: int
    residual_after_deadline: int
    reroute_latency_mean: float
    reroute_latency_max: float
    holddown_violations: int
    plane_violations: int
    spine_imbalance: float
    pre_fault_throughput: float
    recovery_time: Optional[float]
    recovered_links: int


@dataclass(frozen=True)
class ControlPlaneMetrics:
    """Resilience judgment of one CONTROLPLANE scenario.

    * ``replay_digest_match`` — the recovered master's state digest is
      bit-identical to the digest captured at the instant of the kill
      (vacuously true when no kill was scheduled);
    * ``duplicate_actions`` — steering actions physically executed more
      than once for the same fault key within the dedup window, across
      every master incarnation (must be zero: recovery may re-derive an
      action's bookkeeping but never re-execute it);
    * ``stale_actions_executed`` — actions executed by a fenced-out
      master after its successor claimed the journal (must be zero);
    * ``fencing_rejections`` — writes a stale incarnation attempted and
      had rejected (nonzero proves the fence was actually exercised in
      failover scenarios);
    * ``blackout_false_isolations`` — nodes isolated by actions executed
      under degraded coverage that matched no active ground-truth
      episode (the false-isolation storm a telemetry blackout must not
      cause);
    * ``recovery_seconds`` — master downtime: kill to the replacement
      accepting writes;
    * ``baseline_recall`` — episode recall of the identical scenario
      with every control-plane fault disabled; the faulted run's recall
      must not fall below it.
    """

    kills: int
    recoveries: int
    failovers: int
    replay_digest_match: bool
    replay_digest: str
    entries_replayed: int
    journal_entries: int
    snapshots: int
    recovery_seconds: Optional[float]
    duplicate_actions: int
    fencing_rejections: int
    stale_actions_executed: int
    blackout_false_isolations: int
    coverage_min: float
    backfilled_records: int
    baseline_recall: float


@dataclass(frozen=True)
class ScenarioScorecard:
    """One scenario's score."""

    name: str
    seed: int
    kind: str
    episodes: tuple[EpisodeOutcome, ...]
    #: Steering actions judged true / false.
    true_actions: int
    false_actions: int
    #: Nodes isolated by false actions (healthy capacity destroyed).
    false_isolations: int
    #: (episode, node) pairs isolated more than once.
    isolation_storms: int
    #: Spares consumed without curing a real fault (DOA + false actions).
    wasted_backups: int
    #: Actions that found the backup pool empty.
    pool_exhaustions: int
    #: Telemetry channel counters (empty for a perfect channel).
    channel: dict = field(default_factory=dict)
    #: Workload progress (pipeline scenarios).
    steps_completed: int = 0
    relaunches: int = 0
    #: Corrupted snapshots skipped during restore (recovery scenarios).
    restore_fallbacks: int = 0
    #: RECOVERY kind: the run finished despite the injected damage.
    completed: bool = True
    #: FABRIC kind: traffic-engineering metrics (None otherwise).
    fabric: Optional[FabricMetrics] = None
    #: CONTROLPLANE kind: resilience metrics (None otherwise).
    controlplane: Optional[ControlPlaneMetrics] = None

    @property
    def precision(self) -> float:
        """True actions over all actions (1.0 when no action was taken)."""
        total = self.true_actions + self.false_actions
        return self.true_actions / total if total else 1.0

    @property
    def recall(self) -> float:
        """Detected episodes over all episodes (1.0 when none injected)."""
        if not self.episodes:
            return 1.0
        return sum(1 for e in self.episodes if e.detected) / len(self.episodes)

    @property
    def mttr_values(self) -> tuple[float, ...]:
        """MTTR samples of the detected episodes."""
        return tuple(
            e.mttr_seconds for e in self.episodes if e.mttr_seconds is not None
        )


@dataclass(frozen=True)
class CampaignScorecard:
    """Aggregate over every scenario of a campaign."""

    scenarios: tuple[ScenarioScorecard, ...]

    @property
    def precision(self) -> float:
        """Micro-averaged action precision across scenarios."""
        true = sum(s.true_actions for s in self.scenarios)
        false = sum(s.false_actions for s in self.scenarios)
        total = true + false
        return true / total if total else 1.0

    @property
    def recall(self) -> float:
        """Micro-averaged episode recall across scenarios."""
        episodes = [e for s in self.scenarios for e in s.episodes]
        if not episodes:
            return 1.0
        return sum(1 for e in episodes if e.detected) / len(episodes)

    @property
    def false_isolations(self) -> int:
        """Healthy nodes isolated across the whole campaign."""
        return sum(s.false_isolations for s in self.scenarios)

    @property
    def isolation_storms(self) -> int:
        """(episode, node) pairs isolated more than once, campaign-wide."""
        return sum(s.isolation_storms for s in self.scenarios)

    @property
    def wasted_backups(self) -> int:
        """Spares consumed without curing a real fault, campaign-wide."""
        return sum(s.wasted_backups for s in self.scenarios)

    @property
    def mttr_values(self) -> tuple[float, ...]:
        """All MTTR samples across scenarios."""
        return tuple(v for s in self.scenarios for v in s.mttr_values)

    def mttr_stats(self) -> dict:
        """Min/median/mean/max of the MTTR distribution."""
        values = sorted(self.mttr_values)
        if not values:
            return {"count": 0}
        mid = len(values) // 2
        median = (
            values[mid]
            if len(values) % 2
            else (values[mid - 1] + values[mid]) / 2.0
        )
        return {
            "count": len(values),
            "min": values[0],
            "median": median,
            "mean": sum(values) / len(values),
            "max": values[-1],
        }


def _action_targets(action: SteeringAction) -> set[int]:
    """Every node an action accused: isolated, failed, or suspected."""
    targets = set(action.isolated_nodes) | set(action.failed_isolations)
    targets.update(n for n in action.anomaly.suspect_nodes)
    return targets


@dataclass(frozen=True)
class _Action:
    """A steering action or a recovery event, as the scorer sees it."""

    detected_at: float
    #: Nodes the action accused; one inside an active episode makes it true.
    targets: set[int]
    isolated: tuple[int, ...]
    replacements: tuple[int, ...]
    doa: tuple[int, ...]
    pool_exhausted: bool
    #: When the job ran again (the end of the MTTR interval).
    ready_at: float


def _steering_action(action: SteeringAction) -> _Action:
    return _Action(
        detected_at=action.anomaly.detected_at,
        targets=_action_targets(action),
        isolated=action.isolated_nodes,
        replacements=action.replacement_nodes,
        doa=action.doa_replacements,
        pool_exhausted=action.pool_exhausted,
        ready_at=action.ready_at,
    )


def matching_episodes(
    episodes: Sequence[Episode], now: float, victims: Iterable[int]
) -> list[Episode]:
    """Episodes active at ``now`` (grace included) that share a node with ``victims``."""
    named = set(victims)
    return [
        episode
        for episode in episodes
        if episode.active_at(now) and not named.isdisjoint(episode.nodes)
    ]


def _span_id(scenario: ChaosScenario, episode: Episode) -> str:
    return f"{scenario.name}/{episode.episode_id}"


def register_episodes(tracer: FaultTracer, scenario: ChaosScenario) -> None:
    """Open one fault span per ground-truth episode of ``scenario``."""
    for episode in scenario.episodes:
        tracer.register_fault(
            _span_id(scenario, episode),
            kind=episode.kind,
            victims=episode.nodes,
            injected_at=episode.onset,
            windows=episode.windows,
        )


def trace_verdict(
    tracer: FaultTracer,
    scenario: ChaosScenario,
    now: float,
    victims: Sequence[int],
    kind: str = "",
) -> None:
    """Stamp ``detect`` on each episode a verdict names, else record a false positive."""
    matched = matching_episodes(scenario.episodes, now, victims)
    if not matched:
        tracer.false_positive(now, victims, kind)
    for episode in matched:
        tracer.stage(_span_id(scenario, episode), "detect", now, detector=kind)


def trace_symptom(
    tracer: FaultTracer, scenario: ChaosScenario, now: float, node: int
) -> None:
    """Stamp ``first_record`` on each episode a symptomatic record of ``node`` shows."""
    for episode in matching_episodes(scenario.episodes, now, (node,)):
        tracer.stage(_span_id(scenario, episode), "first_record", now)


def _score(
    scenario: ChaosScenario,
    actions: Sequence[_Action],
    tracer: Optional[FaultTracer],
    **fields,
) -> ScenarioScorecard:
    """Judge normalized actions against the scenario's ground truth.

    ``tracer``, when given, gets ``steer`` and ``recover`` stamped on
    each episode an action matched.  ``fields`` fills the scorecard's
    run-specific counters (channel, progress, restore fallbacks,
    completion).
    """
    episodes = scenario.episodes
    first_match: dict[str, _Action] = {}
    isolations: dict[str, dict[int, int]] = {e.episode_id: {} for e in episodes}
    true_actions = 0
    false_actions = 0
    false_isolations = 0
    wasted = 0
    pool_exhaustions = 0
    for action in actions:
        pool_exhaustions += int(action.pool_exhausted)
        wasted += len(action.doa)
        matched = matching_episodes(episodes, action.detected_at, action.targets)
        if matched:
            true_actions += 1
            for episode in matched:
                first_match.setdefault(episode.episode_id, action)
                counts = isolations[episode.episode_id]
                for node in action.isolated:
                    if node in episode.nodes:
                        counts[node] = counts.get(node, 0) + 1
                if tracer is not None:
                    fault_id = _span_id(scenario, episode)
                    tracer.stage(fault_id, "steer", action.detected_at)
                    tracer.stage(fault_id, "recover", action.ready_at)
        else:
            false_actions += 1
            false_isolations += len(action.isolated)
            wasted += len(action.replacements)
    outcomes = []
    for episode in episodes:
        action = first_match.get(episode.episode_id)
        outcomes.append(
            EpisodeOutcome(
                episode_id=episode.episode_id,
                kind=episode.kind,
                nodes=episode.nodes,
                onset=episode.onset,
                detected=action is not None,
                detected_at=action.detected_at if action else None,
                mttr_seconds=(action.ready_at - episode.onset) if action else None,
                isolations_per_node=dict(isolations[episode.episode_id]),
            )
        )
    storms = sum(len(o.storm_nodes) for o in outcomes)
    return ScenarioScorecard(
        name=scenario.name,
        seed=scenario.seed,
        kind=scenario.kind.value,
        episodes=tuple(outcomes),
        true_actions=true_actions,
        false_actions=false_actions,
        false_isolations=false_isolations,
        isolation_storms=storms,
        wasted_backups=wasted,
        pool_exhaustions=pool_exhaustions,
        **fields,
    )


def score_pipeline_scenario(
    scenario: ChaosScenario,
    actions: Sequence[SteeringAction],
    channel_stats: Optional[dict] = None,
    steps_completed: int = 0,
    relaunches: int = 0,
    tracer: Optional[FaultTracer] = None,
) -> ScenarioScorecard:
    """Judge one pipeline run's steering actions against ground truth."""
    return _score(
        scenario,
        [_steering_action(action) for action in actions],
        tracer,
        channel=dict(channel_stats or {}),
        steps_completed=steps_completed,
        relaunches=relaunches,
    )


def score_fabric_scenario(
    scenario: ChaosScenario, metrics: FabricMetrics
) -> ScenarioScorecard:
    """Wrap one fabric run's measurements into the campaign scorecard.

    Fabric scenarios have no steering actions or node episodes; the
    episode/action counters stay empty and the scenario passes
    (``completed``) when the three hard invariants hold: every victim
    QP migrated by its deadline, no placement violated a hold-down, and
    no migration crossed planes.
    """
    return ScenarioScorecard(
        name=scenario.name,
        seed=scenario.seed,
        kind=scenario.kind.value,
        episodes=(),
        true_actions=0,
        false_actions=0,
        false_isolations=0,
        isolation_storms=0,
        wasted_backups=0,
        pool_exhaustions=metrics.stranded,
        completed=(
            metrics.residual_after_deadline == 0
            and metrics.holddown_violations == 0
            and metrics.plane_violations == 0
        ),
        fabric=metrics,
    )


def score_controlplane_scenario(
    card: ScenarioScorecard, resilience: ControlPlaneMetrics
) -> ScenarioScorecard:
    """Judge one control-plane run: its pipeline card plus resilience.

    ``card`` is the pipeline judgment of the run (the logical action
    history spans every master incarnation — replay reconstructs the
    pre-crash actions on the recovered master).  On top of it, the
    scenario only passes (``completed``) when the resilience invariants
    hold: the replayed digest matched, no action was executed twice, no
    stale master executed anything, no blackout false isolation
    happened, and recall did not fall below the fault-free baseline.
    """
    completed = (
        resilience.replay_digest_match
        and resilience.duplicate_actions == 0
        and resilience.stale_actions_executed == 0
        and resilience.blackout_false_isolations == 0
        and card.recall >= resilience.baseline_recall
    )
    return replace(card, completed=completed, controlplane=resilience)


def score_recovery_scenario(
    scenario: ChaosScenario,
    report: RecoveryReport,
    tracer: Optional[FaultTracer] = None,
) -> ScenarioScorecard:
    """Judge one recovery run's events against ground truth."""
    actions = [
        replace(
            _steering_action(event.action),
            detected_at=event.detected_at,
            targets=set(event.action.isolated_nodes),
        )
        for event in report.events
    ]
    return _score(
        scenario,
        actions,
        tracer,
        steps_completed=report.completed_steps,
        relaunches=len(report.events),
        restore_fallbacks=sum(event.restore_fallbacks for event in report.events),
        completed=report.finished,
    )
