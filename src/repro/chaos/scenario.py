"""Chaos scenario definitions: seeded adversarial campaigns with ground truth.

A scenario bundles everything one adversarial run needs — the fault
plan (the *ground truth* the scorecard judges against), the telemetry
unreliability model, and the steering fault model.  Four scenario kinds
exist:

* ``PIPELINE`` — drives the full detect→steer pipeline: a synthetic
  monitored workload emits real monitoring records through a lossy
  channel into the central collector, the (debounced) C4D master
  evaluates periodically, and the hardened steering service isolates
  and replaces nodes;
* ``RECOVERY`` — drives the full crash→restore pipeline on the real
  :class:`~repro.training.recovery.RecoveryOrchestrator`, with
  checkpoint corruption injected so restore must fall back through the
  snapshot chain.
* ``FABRIC`` — drives the C4P traffic-engineering plane: live QPs
  allocated by a real :class:`~repro.core.c4p.master.C4PMaster` while
  fabric links die, flap and come back, judged on drain-and-migrate
  completeness, reroute latency, flap damping and throughput recovery
  (the Fig. 12/13 behaviours under adversarial schedules);
* ``CONTROLPLANE`` — drives the same feed through a journaled
  :class:`~repro.controlplane.c4d_plane.C4DControlPlane` while the
  master itself is killed, failed over, partitioned from its telemetry
  or blinded by dead agents.

Every scenario of one kind runs with the same detector hardening
(:data:`HARDENED_DETECTORS`), steering latencies (:data:`CHAOS_STEERING`)
and evaluation cadence (:data:`EVALUATION_INTERVAL`).

Scenario factories derive every stochastic choice from the scenario
seed, so a campaign is reproducible end to end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.cluster.faults import (
    FaultClass,
    FaultEvent,
    FaultInjector,
    FaultType,
    spine_fabric_links,
)
from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.core.c4d.detectors import DetectorConfig
from repro.core.c4d.steering import SteeringConfig, SteeringFaultModel
from repro.telemetry.unreliable import ChannelConfig


class ScenarioKind(enum.Enum):
    """Which pipeline the scenario exercises."""

    PIPELINE = "pipeline"  # detect -> steer on the synthetic feed
    RECOVERY = "recovery"  # crash -> checkpoint-restore on the orchestrator
    FABRIC = "fabric"  # link faults -> drain-and-migrate on the C4P master
    CONTROLPLANE = "controlplane"  # master crashes / telemetry blackouts


@dataclass(frozen=True)
class Episode:
    """One ground-truth fault episode the pipeline should handle.

    ``windows`` are the (start, end) intervals during which the fault
    degrades its victims; ``end`` is ``inf`` for permanent faults.  A
    flapping fault is one episode with several windows; a cascade is one
    episode with several nodes.
    """

    episode_id: str
    nodes: tuple[int, ...]
    windows: tuple[tuple[float, float], ...]
    kind: str

    @property
    def onset(self) -> float:
        """First moment the fault is active."""
        return min(start for start, _end in self.windows)

    def active_at(self, now: float, grace: float = 0.0) -> bool:
        """True while any window (stretched by ``grace``) covers ``now``."""
        return any(start <= now <= end + grace for start, end in self.windows)

    def covers_node(self, node: int) -> bool:
        """True when the episode degrades ``node``."""
        return node in self.nodes


def episodes_from_faults(faults: tuple[FaultEvent, ...]) -> tuple[Episode, ...]:
    """Group injected fault events into scoreable ground-truth episodes.

    Events sharing an ``episode_id`` (flapping recurrences) merge into
    one multi-window episode; events sharing a ``cascade_id`` merge into
    one multi-node episode; everything else is its own episode.
    """
    groups: dict[str, list[FaultEvent]] = {}
    for index, event in enumerate(faults):
        if event.episode_id is not None:
            key = f"flap{event.episode_id}"
        elif event.cascade_id is not None:
            key = f"cascade{event.cascade_id}"
        else:
            key = f"single{index}"
        groups.setdefault(key, []).append(event)
    episodes = []
    for key, events in groups.items():
        nodes = tuple(sorted({e.component for e in events if e.component is not None}))
        windows = tuple(
            sorted(
                (e.time, e.end_time if e.end_time is not None else float("inf"))
                for e in events
            )
        )
        episodes.append(
            Episode(
                episode_id=key,
                nodes=nodes,
                windows=windows,
                kind=events[0].fault_type.value,
            )
        )
    return tuple(sorted(episodes, key=lambda e: e.onset))


@dataclass(frozen=True)
class FabricEvent:
    """One scheduled fabric state change.

    ``notify=True`` models an out-of-band failure notification reaching
    the C4P master immediately (a switch trap, a NIC event — the Fig. 12
    fast path); ``notify=False`` is a *silent* failure the master must
    catch through its periodic incremental re-probe.  ``up`` events are
    always silent: recovery must earn its way back through the health
    state machine, never through an announcement.
    """

    time: float
    action: str  # "down" | "up"
    links: tuple[tuple, ...]
    notify: bool = True

    def __post_init__(self) -> None:
        if self.action not in ("down", "up"):
            raise ValueError(f"action must be 'down' or 'up', got {self.action!r}")


@dataclass(frozen=True)
class FabricPlan:
    """Ground truth and judging knobs of one FABRIC scenario.

    Attributes
    ----------
    events:
        The fault schedule (the ground truth the scorecard judges
        against).
    migration_deadline:
        Seconds after each ``down`` event by which every victim QP must
        be off the dead link(s) — the residual-QP acceptance check.
    nic:
        NIC index the tenant connections use; pins the load to one rail
        so the scheduled link faults actually have victims.
    flap_guards:
        ``(link_id, start, end)`` triples: placements of QPs onto
        ``link_id`` inside its window are hold-down violations.  Each
        window runs from just after that link's *first* failure (before
        it the link is legitimately healthy) until its last hold-down
        expires under the default
        :class:`~repro.core.c4p.health.LinkHealthConfig` escalation
        schedule.
    """

    events: tuple[FabricEvent, ...]
    migration_deadline: float = 30.0
    nic: int = 0
    flap_guards: tuple[tuple[tuple, float, float], ...] = ()

    @property
    def down_events(self) -> tuple[FabricEvent, ...]:
        """The failure half of the schedule, in time order."""
        return tuple(
            sorted((e for e in self.events if e.action == "down"), key=lambda e: e.time)
        )


@dataclass(frozen=True)
class ControlPlanePlan:
    """The fault schedule of one CONTROLPLANE scenario.

    The plan schedules faults against the *control plane itself* — the
    C4D master process and its telemetry supply — rather than against
    the monitored job.  Every timestamp is deliberately off the feed
    (5 s) and evaluation (10 s + 0.5) grids so perturbed-schedule
    replays cannot reorder the chaos events against same-instant
    pipeline events.

    Attributes
    ----------
    kill_at / recover_at:
        When the primary master dies and when the replacement claims the
        journal.  ``failover=False`` restarts a cold instance from the
        journal; ``failover=True`` promotes a pre-built warm standby.
    stale_poke_at:
        Failover only: when the fenced-out old primary attempts a write
        (the zombie-master probe — it must be rejected, not applied).
    partition:
        ``(start, end)`` window during which agents cannot reach the
        collector at all (a full telemetry blackout; the master stays
        up and must enter degraded mode instead of isolating).
    massacre_window / massacre_nodes:
        Window during which the listed nodes' agents are dead — their
        records vanish and their leases expire, blinding the master to
        half the job while the job itself stays healthy.

    The default plan schedules nothing: the calm run a scenario's recall
    baseline comes from.
    """

    kill_at: Optional[float] = None
    recover_at: Optional[float] = None
    failover: bool = False
    stale_poke_at: Optional[float] = None
    partition: Optional[tuple[float, float]] = None
    massacre_window: Optional[tuple[float, float]] = None
    massacre_nodes: tuple[int, ...] = ()


#: Detector hardening of every chaos run: debounce over two
#: consecutive evaluations, ten-minute per-node action hysteresis, and
#: slow-threshold hysteresis — the configuration the acceptance
#: criteria (precision >= 0.9, zero isolation storms) are scored with.
HARDENED_DETECTORS = DetectorConfig(
    hang_timeout=30.0,
    debounce_evaluations=2,
    node_action_cooldown=600.0,
    slow_hysteresis=0.8,
)
#: Steering latencies of every chaos run.
CHAOS_STEERING = SteeringConfig(isolation_seconds=60.0, restart_seconds=120.0)
#: How often the master evaluates, in simulated seconds.
EVALUATION_INTERVAL = 10.0


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded adversarial run."""

    name: str
    seed: int
    kind: ScenarioKind = ScenarioKind.PIPELINE
    #: Nodes participating in the monitored job (one rank per node).
    job_nodes: int = 8
    #: Spare nodes available to the steering service.
    backup_nodes: int = 2
    duration: float = 1800.0
    #: Injected ground truth.
    faults: tuple[FaultEvent, ...] = ()
    #: Telemetry unreliability (None = perfect channel).
    channel: Optional[ChannelConfig] = None
    steering_faults: Optional[SteeringFaultModel] = None
    #: RECOVERY kind: snapshots corrupted before restore.
    corrupt_newest: int = 0
    #: FABRIC kind: the fault schedule and judging knobs.
    fabric: Optional[FabricPlan] = None
    #: CONTROLPLANE kind: the master/telemetry fault schedule.
    controlplane: Optional[ControlPlanePlan] = None

    @property
    def episodes(self) -> tuple[Episode, ...]:
        """Ground-truth episodes derived from the fault plan."""
        return episodes_from_faults(self.faults)


# ----------------------------------------------------------------------
# Scenario factories
# ----------------------------------------------------------------------
def flapping_scenario(
    seed: int,
    episodes: int = 2,
    drop_rate: float = 0.10,
    job_nodes: int = 8,
    duration: float = 1800.0,
) -> ChaosScenario:
    """Flapping hosts under lossy telemetry — the acceptance scenario."""
    injector = FaultInjector(seed=seed)
    faults = tuple(
        injector.sample_flapping(
            duration_seconds=duration * 0.6,
            num_nodes=job_nodes,
            episodes=episodes,
            mean_active_seconds=240.0,
            mean_quiet_seconds=120.0,
            max_recurrences=3,
        )
    )
    return ChaosScenario(
        name=f"flapping[s{seed}]",
        seed=seed,
        job_nodes=job_nodes,
        duration=duration,
        faults=faults,
        channel=ChannelConfig(drop_rate=drop_rate, duplicate_rate=0.05),
    )


def cascade_scenario(
    seed: int,
    group_size: int = 3,
    job_nodes: int = 8,
    duration: float = 1500.0,
) -> ChaosScenario:
    """A correlated ToR-style cascade degrading a contiguous node group."""
    injector = FaultInjector(seed=seed)
    faults = tuple(
        injector.sample_cascades(
            duration_seconds=duration * 0.5,
            num_nodes=job_nodes,
            cascades=1,
            group_size=group_size,
            mean_active_seconds=600.0,
        )
    )
    return ChaosScenario(
        name=f"cascade[s{seed}]",
        seed=seed,
        job_nodes=job_nodes,
        backup_nodes=group_size,
        duration=duration,
        faults=faults,
        channel=ChannelConfig(drop_rate=0.05, duplicate_rate=0.05),
    )


def crash_under_loss_scenario(
    seed: int,
    drop_rate: float = 0.10,
    job_nodes: int = 8,
    duration: float = 1200.0,
) -> ChaosScenario:
    """A hard worker crash with degraded steering under lossy telemetry."""
    injector = FaultInjector(seed=seed)
    victim = int(injector.pick_victims(list(range(job_nodes)), 1)[0])
    onset = 60.0 + (seed % 5) * 30.0
    crash = FaultEvent(
        time=onset,
        fault_type=FaultType.CUDA_ERROR,
        fault_class=FaultClass.CRASH,
        is_local=True,
        component=victim,
    )
    return ChaosScenario(
        name=f"crash[s{seed}]",
        seed=seed,
        job_nodes=job_nodes,
        duration=duration,
        faults=(crash,),
        channel=ChannelConfig(drop_rate=drop_rate, duplicate_rate=0.05),
        steering_faults=SteeringFaultModel(
            isolation_failure_rate=0.3, replacement_doa_rate=0.2, seed=seed
        ),
    )


def checkpoint_corruption_scenario(seed: int, corrupt_newest: int = 1) -> ChaosScenario:
    """A crash whose newest snapshot(s) are corrupted at restore time."""
    injector = FaultInjector(seed=seed)
    victim = int(injector.pick_victims(list(range(4)), 1)[0])
    crash = FaultEvent(
        time=40.0,
        fault_type=FaultType.ECC_NVLINK_ERROR,
        fault_class=FaultClass.CRASH,
        is_local=True,
        component=victim,
    )
    return ChaosScenario(
        name=f"ckpt-corruption[s{seed}]",
        seed=seed,
        kind=ScenarioKind.RECOVERY,
        job_nodes=4,
        duration=800.0,
        faults=(crash,),
        corrupt_newest=corrupt_newest,
    )


# ----------------------------------------------------------------------
# Fabric (C4P) scenario factories
# ----------------------------------------------------------------------
def link_down_scenario(seed: int, duration: float = 300.0) -> ChaosScenario:
    """Mid-job leaf-spine link death with out-of-band notification (Fig. 12).

    The acceptance scenario for drain-and-migrate: every QP on the dead
    link must be on a healthy route within the migration deadline.
    """
    spec = TESTBED_16_NODES
    rail = seed % spec.rails
    link = ClusterTopology.leaf_up(
        rail, seed % 2, seed % spec.spines_per_rail, seed % spec.uplink_ports_per_spine
    )
    plan = FabricPlan(
        events=(FabricEvent(time=60.0, action="down", links=(link,)),),
        migration_deadline=20.0,
        nic=rail,
    )
    return ChaosScenario(
        name=f"link-down[s{seed}]",
        seed=seed,
        kind=ScenarioKind.FABRIC,
        duration=duration,
        fabric=plan,
    )


def flapping_link_scenario(seed: int, duration: float = 400.0) -> ChaosScenario:
    """Two links flapping out of phase (Fig. 13's adversarial cousin).

    When link A dies while link B is in its quiet half, B is exactly
    where a naive master would migrate A's QPs — the hold-down must keep
    both links out of the pool until they stop flapping.  The guard
    window runs from the first failure to the last hold-down expiry
    (failures at 60/110/160 and 80/130/180 escalate 30 s → 60 s → 120 s
    under the default :class:`LinkHealthConfig`).
    """
    spec = TESTBED_16_NODES
    rail = seed % spec.rails
    link_a = ClusterTopology.leaf_up(
        rail, 0, seed % spec.spines_per_rail, seed % spec.uplink_ports_per_spine
    )
    link_b = ClusterTopology.leaf_up(
        rail,
        1,
        (seed + 3) % spec.spines_per_rail,
        (seed + 1) % spec.uplink_ports_per_spine,
    )
    events = []
    for link, start in [
        (link_a, 60.0), (link_b, 80.0), (link_a, 110.0),
        (link_b, 130.0), (link_a, 160.0), (link_b, 180.0),
    ]:
        events.append(FabricEvent(time=start, action="down", links=(link,)))
        events.append(FabricEvent(time=start + 15.0, action="up", links=(link,)))
    plan = FabricPlan(
        events=tuple(events),
        migration_deadline=20.0,
        # Hold-downs escalate 30 -> 60 -> 120: A's expires at 160 + 120
        # = 280, B's at 180 + 120 = 300.
        flap_guards=((link_a, 61.0, 280.0), (link_b, 81.0, 300.0)),
        nic=rail,
    )
    return ChaosScenario(
        name=f"flapping-link[s{seed}]",
        seed=seed,
        kind=ScenarioKind.FABRIC,
        duration=duration,
        fabric=plan,
    )


def spine_maintenance_scenario(seed: int, duration: float = 300.0) -> ChaosScenario:
    """A whole spine silently taken down (unannounced maintenance).

    No notification reaches the master — detection must come from the
    periodic incremental re-probe, so the migration deadline allows for
    one re-probe interval of blindness.
    """
    spec = TESTBED_16_NODES
    rail = seed % spec.rails
    spine = seed % spec.spines_per_rail
    plan = FabricPlan(
        events=(
            FabricEvent(
                time=60.0,
                action="down",
                links=spine_fabric_links(spec, rail, spine),
                notify=False,
            ),
        ),
        migration_deadline=40.0,
        nic=rail,
    )
    return ChaosScenario(
        name=f"spine-maintenance[s{seed}]",
        seed=seed,
        kind=ScenarioKind.FABRIC,
        duration=duration,
        fabric=plan,
    )


def dual_plane_scenario(seed: int, duration: float = 300.0) -> ChaosScenario:
    """Correlated failures on *both* planes at the same instant.

    The drain must keep every migrated QP in its original plane (left
    victims re-placed on left routes, right on right) even though both
    planes are degraded simultaneously.
    """
    spec = TESTBED_16_NODES
    rail = seed % spec.rails
    link_left = ClusterTopology.leaf_up(
        rail, 0, seed % spec.spines_per_rail, seed % spec.uplink_ports_per_spine
    )
    link_right = ClusterTopology.leaf_up(
        rail,
        1,
        (seed + 5) % spec.spines_per_rail,
        (seed + 2) % spec.uplink_ports_per_spine,
    )
    plan = FabricPlan(
        events=(
            FabricEvent(time=60.0, action="down", links=(link_left, link_right)),
        ),
        migration_deadline=20.0,
        nic=rail,
    )
    return ChaosScenario(
        name=f"dual-plane[s{seed}]",
        seed=seed,
        kind=ScenarioKind.FABRIC,
        duration=duration,
        fabric=plan,
    )


# ----------------------------------------------------------------------
# Control-plane scenario factories
# ----------------------------------------------------------------------
def _crash(time: float, victim: int) -> FaultEvent:
    return FaultEvent(
        time=time,
        fault_type=FaultType.CUDA_ERROR,
        fault_class=FaultClass.CRASH,
        is_local=True,
        component=victim,
    )


def master_kill_scenario(seed: int, duration: float = 900.0) -> ChaosScenario:
    """The C4D master dies mid-campaign and restarts from its journal.

    One worker crash lands before the kill (its verdict and isolation
    are in the journal) and one after the recovery (post-recovery recall
    must match the no-kill baseline).  The acceptance criteria: the
    recovered state digest equals the pre-kill digest, and no steering
    action is ever executed twice for the same fault.
    """
    injector = FaultInjector(seed=seed)
    victims = [int(v) for v in injector.pick_victims(list(range(8)), 2)]
    plan = ControlPlanePlan(kill_at=397.3, recover_at=457.9)
    return ChaosScenario(
        name=f"master-kill[s{seed}]",
        seed=seed,
        kind=ScenarioKind.CONTROLPLANE,
        job_nodes=8,
        backup_nodes=2,
        duration=duration,
        faults=(_crash(60.3, victims[0]), _crash(600.3, victims[1])),
        controlplane=plan,
    )


def failover_scenario(seed: int, duration: float = 900.0) -> ChaosScenario:
    """A warm standby is promoted while the old primary still runs.

    Identical fault plan to :func:`master_kill_scenario`, but recovery
    promotes a pre-built standby sharing the journal store, and the
    fenced-out old primary pokes the journal after the promotion — the
    zombie write that epoch fencing exists to reject.
    """
    injector = FaultInjector(seed=seed)
    victims = [int(v) for v in injector.pick_victims(list(range(8)), 2)]
    plan = ControlPlanePlan(
        kill_at=397.3, recover_at=457.9, failover=True, stale_poke_at=465.2
    )
    return ChaosScenario(
        name=f"failover[s{seed}]",
        seed=seed,
        kind=ScenarioKind.CONTROLPLANE,
        job_nodes=8,
        backup_nodes=2,
        duration=duration,
        faults=(_crash(60.3, victims[0]), _crash(600.3, victims[1])),
        controlplane=plan,
    )


def collector_partition_scenario(seed: int, duration: float = 720.0) -> ChaosScenario:
    """Agents partitioned from the collector: a total telemetry blackout.

    The master stays up and keeps evaluating while every record and
    heartbeat is cut off for two minutes.  The cluster is healthy the
    whole time — so every isolation during the blackout would destroy
    good capacity.  Lease expiry must drive coverage below the degraded
    threshold and suppress the (inevitable) hang verdicts; on heal, the
    agents backfill their buffered records and detection resumes.
    """
    injector = FaultInjector(seed=seed)
    victim = int(injector.pick_victims(list(range(8)), 1)[0])
    plan = ControlPlanePlan(partition=(300.7, 420.7))
    return ChaosScenario(
        name=f"collector-partition[s{seed}]",
        seed=seed,
        kind=ScenarioKind.CONTROLPLANE,
        job_nodes=8,
        backup_nodes=2,
        duration=duration,
        faults=(_crash(60.3, victim),),
        controlplane=plan,
    )


def agent_massacre_scenario(seed: int, duration: float = 900.0) -> ChaosScenario:
    """Half the agents die; their nodes go dark while staying healthy.

    Four of eight agents are killed for two hundred seconds — coverage
    drops to 0.5 (below the 0.6 threshold) and the dark nodes look
    exactly like crashed workers.  Degraded mode must hold fire for the
    whole window; after the agents revive, a real crash on a node that
    stayed covered must still be caught.
    """
    injector = FaultInjector(seed=seed)
    massacred = tuple(int(v) for v in sorted(injector.pick_victims(list(range(8)), 4)))
    survivors = [n for n in range(8) if n not in massacred]
    victim = int(injector.pick_victims(survivors, 1)[0])
    plan = ControlPlanePlan(
        massacre_window=(200.3, 400.7), massacre_nodes=massacred
    )
    return ChaosScenario(
        name=f"agent-massacre[s{seed}]",
        seed=seed,
        kind=ScenarioKind.CONTROLPLANE,
        job_nodes=8,
        backup_nodes=2,
        duration=duration,
        faults=(_crash(500.3, victim),),
        controlplane=plan,
    )


def default_campaign(seed: int = 0) -> list[ChaosScenario]:
    """The standard mixed campaign: node, recovery, fabric and master faults."""
    return [
        flapping_scenario(seed),
        flapping_scenario(seed + 1),
        cascade_scenario(seed + 2),
        crash_under_loss_scenario(seed + 3),
        checkpoint_corruption_scenario(seed + 4),
        link_down_scenario(seed + 5),
        flapping_link_scenario(seed + 6),
        spine_maintenance_scenario(seed + 7),
        dual_plane_scenario(seed + 8),
        master_kill_scenario(seed + 9),
        failover_scenario(seed + 10),
        collector_partition_scenario(seed + 11),
        agent_massacre_scenario(seed + 12),
    ]
