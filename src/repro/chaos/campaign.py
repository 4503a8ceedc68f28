"""The chaos campaign runner: seeded adversarial runs, scored end to end.

:class:`ChaosCampaign` executes a list of
:class:`~repro.chaos.scenario.ChaosScenario` definitions and judges each
run against its injected ground truth.  Nothing in the execution path is
mocked:

* **PIPELINE** and **CONTROLPLANE** scenarios run the one feed loop,
  :func:`~repro.chaos.controlplane.run_feed_loop`: a
  :class:`~repro.chaos.workload.SyntheticFeed` plays the monitored job
  on a real cluster topology, its records reach the real debounced
  :class:`~repro.core.c4d.master.C4DMaster` and hardened
  :class:`~repro.core.c4d.steering.JobSteeringService`, and each
  executed steering action tears the incarnation down and relaunches it
  on the survivors plus replacements at ``ready_at``.  PIPELINE feeds a
  bare collector over the (optionally lossy)
  :class:`~repro.telemetry.unreliable.UnreliableChannel`; CONTROLPLANE
  is the same loop with a journaled master that is killed, failed over,
  partitioned or blinded.
* **RECOVERY** scenarios run the full
  :class:`~repro.training.recovery.RecoveryOrchestrator` on the 16-node
  testbed, with checkpoint corruption injected right before the crash so
  restore must walk the snapshot fallback chain.
* **FABRIC** scenarios run in :mod:`repro.chaos.fabric`: a real
  :class:`~repro.core.c4p.master.C4PMaster` drains and migrates live QPs
  while links die, flap and come back.

Every stochastic choice derives from scenario seeds, so a campaign's
scorecard is reproducible bit for bit.
"""

from __future__ import annotations

import logging
from typing import Optional, Sequence

from repro.chaos.controlplane import run_controlplane_scenario, run_feed_loop
from repro.chaos.scenario import (
    CHAOS_STEERING,
    EVALUATION_INTERVAL,
    HARDENED_DETECTORS,
    ChaosScenario,
    ScenarioKind,
    default_campaign,
)
from repro.chaos.scorecard import (
    CampaignScorecard,
    ScenarioScorecard,
    register_episodes,
    score_recovery_scenario,
    trace_verdict,
)
from repro.obs.report import ObservabilityPlane
from repro.training.job import JobSpec
from repro.training.memory_checkpoint import InMemoryCheckpointer
from repro.training.models import GPT_22B
from repro.training.parallelism import ParallelismPlan
from repro.training.recovery import RecoveryOrchestrator
from repro.training.scheduler import ClusterScheduler
from repro.workloads.generator import build_cluster

logger = logging.getLogger(__name__)


class ChaosCampaign:
    """Run seeded adversarial scenarios and score the pipeline.

    Parameters
    ----------
    scenarios:
        Scenario list; ``None`` uses :func:`default_campaign`.
    seed:
        Base seed for the default campaign (ignored when ``scenarios``
        is given).
    observability:
        The :class:`~repro.obs.report.ObservabilityPlane` receiving this
        campaign's metrics and fault spans.  ``None`` creates a private
        plane, so every campaign is observable by default; read
        ``campaign.obs.snapshot()`` after :meth:`run`.  Fault spans are
        named ``<scenario>/<episode>``, so one tracer serves every
        scenario.
    """

    def __init__(
        self,
        scenarios: Optional[Sequence[ChaosScenario]] = None,
        seed: int = 0,
        observability: Optional[ObservabilityPlane] = None,
    ) -> None:
        self.scenarios = (
            list(scenarios) if scenarios is not None else default_campaign(seed)
        )
        self.obs = observability if observability is not None else ObservabilityPlane()
        self._ran: set[str] = set()

    def run(self) -> CampaignScorecard:
        """Execute every scenario; returns the aggregate scorecard."""
        cards = []
        for scenario in self.scenarios:
            logger.info("chaos scenario %s starting", scenario.name)
            card = self.run_scenario(scenario)
            logger.info(
                "chaos scenario %s: precision=%.2f recall=%.2f storms=%d",
                scenario.name,
                card.precision,
                card.recall,
                card.isolation_storms,
            )
            cards.append(card)
        return CampaignScorecard(scenarios=tuple(cards))

    def run_scenario(self, scenario: ChaosScenario) -> ScenarioScorecard:
        """Execute one scenario of any kind.

        Raises ``ValueError`` for a scenario name this campaign already
        ran: its fault spans would collide with the earlier run's.
        """
        if scenario.name in self._ran:
            raise ValueError(f"scenario {scenario.name!r} already ran in this campaign")
        self._ran.add(scenario.name)
        tracer = self.obs.tracer
        # Fabric scenarios inject no node faults; their runner opens
        # spans for its link faults.
        register_episodes(tracer, scenario)
        if scenario.kind is ScenarioKind.RECOVERY:
            return self._run_recovery(scenario)
        if scenario.kind is ScenarioKind.FABRIC:
            from repro.chaos.fabric import run_fabric_scenario

            return run_fabric_scenario(scenario, metrics=self.obs.registry, tracer=tracer)
        if scenario.kind is ScenarioKind.CONTROLPLANE:
            return run_controlplane_scenario(
                scenario, metrics=self.obs.registry, tracer=tracer
            )
        card, _ = run_feed_loop(scenario, self.obs.registry, tracer)
        return card

    # ------------------------------------------------------------------
    # RECOVERY: crash -> detect -> isolate -> checkpoint fallback chain
    # ------------------------------------------------------------------
    def _run_recovery(self, scenario: ChaosScenario) -> ScenarioScorecard:
        cluster = build_cluster(ecmp_seed=scenario.seed)
        scheduler = ClusterScheduler(cluster.topology, backup_ratio=1 / 16)
        checkpointer = InMemoryCheckpointer(
            interval_steps=2, save_seconds=0.1, capacity=4
        )
        orchestrator = RecoveryOrchestrator(
            cluster.topology,
            scheduler,
            JobSpec(
                "chaos", GPT_22B, ParallelismPlan(tp=8, dp=4), global_batch=64
            ),
            detector_config=HARDENED_DETECTORS,
            steering_config=CHAOS_STEERING,
            checkpointer=checkpointer,
            evaluation_interval=EVALUATION_INTERVAL,
            steering_faults=scenario.steering_faults,
        )
        report = orchestrator.start(num_nodes=scenario.job_nodes, total_steps=24)
        for event in scenario.faults:
            victim = event.component

            def strike(node=victim) -> None:
                if scenario.corrupt_newest:
                    corrupted = checkpointer.corrupt_latest(scenario.corrupt_newest)
                    logger.info(
                        "chaos: corrupted %d snapshot(s) before crash", corrupted
                    )
                orchestrator.crash_node(node)

            cluster.network.schedule(event.time, strike)
        cluster.network.run(until=scenario.duration)
        # Each recovery event is a verdict; scoring stamps steer/recover.
        for event in report.events:
            trace_verdict(
                self.obs.tracer, scenario, event.detected_at, event.action.isolated_nodes
            )
        return score_recovery_scenario(scenario, report, self.obs.tracer)
