"""Schedule-perturbation race detector: the lint pack's dynamic companion.

The static rules (``repro.lint.rules``) catch *sources* of
nondeterminism — wall clocks, unseeded RNGs, unordered iteration.  This
module catches *consumers* of accidental determinism: code that is only
correct because two timers scheduled for the same simulated instant
happen to fire in FIFO order.  The netsim promises ``(time, seq)``
ordering, and everything downstream (detection verdicts, reroute
decisions, scorecards) must not depend on the ``seq`` half of that pair,
because ``seq`` encodes scheduling history, not simulated causality.

Method: replay a scenario N times with a shimmed
:class:`PerturbedEventQueue` whose same-timestamp tie-breaking is
randomized (but seeded, so every replay is itself reproducible), then
diff a canonical digest of each run's fault timeline — every traced
lifecycle stage (inject/detect/steer/recover with timestamps) plus the
final scorecard.  The baseline run uses the stock FIFO queue.  Any
divergence between a perturbed replay and the baseline is a real
ordering race: the same fault schedule produced a different verdict
because of tie-break order alone.  The report pinpoints the first
diverging event pair so the race can be chased to its scheduling site.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.netsim.engine import EventQueue

#: A timeline is an ordered list of JSON-able event dicts; runs are
#: compared element-wise and by digest.
Timeline = list


class PerturbedEventQueue(EventQueue):
    """An :class:`EventQueue` with randomized (seeded) same-time tie-breaking.

    The stock queue assigns monotonically increasing ``seq`` numbers, so
    timers scheduled for the same instant fire in scheduling order.
    This shim draws ``seq`` from a seeded RNG instead: relative order of
    *different* timestamps is untouched, but every same-timestamp tie is
    broken in a schedule-independent, perturbed order.  Runs remain
    fully reproducible for a given ``rng`` seed.
    """

    def __init__(self, rng: random.Random) -> None:
        super().__init__()
        # EventQueue.schedule draws from next(self._seq); feeding it a
        # seeded random stream perturbs exactly the tie-break half of the
        # (time, seq) ordering and nothing else.  The counter paired with
        # each draw keeps seq unique when two draws collide, so a tie
        # never falls through to comparing callbacks.
        self._seq = ((rng.getrandbits(62), n) for n in itertools.count())


@contextmanager
def perturbed_scheduling(seed: int) -> Iterator[random.Random]:
    """Patch the netsim so FlowNetworks built inside use perturbed ties.

    Every :class:`~repro.netsim.network.FlowNetwork` constructed within
    the context gets a :class:`PerturbedEventQueue` sharing one RNG
    seeded with ``seed``.
    """
    import repro.netsim.network as network_module

    rng = random.Random(seed)
    original = network_module.EventQueue

    def build_queue() -> PerturbedEventQueue:
        return PerturbedEventQueue(rng)

    network_module.EventQueue = build_queue  # type: ignore[assignment]
    try:
        yield rng
    finally:
        network_module.EventQueue = original  # type: ignore[assignment]


def timeline_digest(timeline: Timeline) -> str:
    """Canonical content hash of a run's timeline."""
    payload = json.dumps(timeline, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Divergence:
    """First point where a perturbed replay departed from the baseline."""

    replay: int
    replay_seed: int
    index: int
    baseline_event: Optional[dict]
    perturbed_event: Optional[dict]

    def to_dict(self) -> dict:
        return {
            "replay": self.replay,
            "replay_seed": self.replay_seed,
            "index": self.index,
            "baseline_event": self.baseline_event,
            "perturbed_event": self.perturbed_event,
        }

    def format(self) -> str:
        return (
            f"replay {self.replay} (seed {self.replay_seed}) diverges at "
            f"timeline[{self.index}]:\n"
            f"  baseline : {json.dumps(self.baseline_event, sort_keys=True)}\n"
            f"  perturbed: {json.dumps(self.perturbed_event, sort_keys=True)}"
        )


@dataclass
class RacecheckReport:
    """Outcome of one racecheck campaign (baseline + N perturbed replays)."""

    target: str
    replays: int
    baseline_digest: str
    replay_digests: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        """True when any replay's timeline departed from the baseline."""
        return bool(self.divergences)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "replays": self.replays,
            "diverged": self.diverged,
            "baseline_digest": self.baseline_digest,
            "replay_digests": list(self.replay_digests),
            "divergences": [d.to_dict() for d in self.divergences],
        }

    def render(self) -> str:
        lines = [
            f"racecheck {self.target}: {self.replays} perturbed replays, "
            f"baseline {self.baseline_digest[:12]}"
        ]
        if not self.diverged:
            lines.append("no divergence: event ordering is tie-break independent")
        else:
            lines.append(f"{len(self.divergences)} DIVERGENT replay(s) — ordering race!")
            for divergence in self.divergences:
                lines.append(divergence.format())
        return "\n".join(lines)


def _first_divergence(
    baseline: Timeline, perturbed: Timeline, replay: int, seed: int
) -> Divergence:
    for index, (expected, got) in enumerate(zip(baseline, perturbed, strict=False)):
        if expected != got:
            return Divergence(replay, seed, index, expected, got)
    index = min(len(baseline), len(perturbed))
    return Divergence(
        replay,
        seed,
        index,
        baseline[index] if index < len(baseline) else None,
        perturbed[index] if index < len(perturbed) else None,
    )


def racecheck(
    runner: Callable[[], Timeline],
    replays: int = 5,
    seed: int = 0,
    target: str = "runner",
) -> RacecheckReport:
    """Run ``runner`` once unpatched and ``replays`` times perturbed; diff.

    ``runner`` must build its simulation *inside* the call (constructing
    FlowNetworks lazily) and return the run's canonical timeline.  All
    other sources of randomness must already be seeded — the static
    rules enforce exactly that — so the only degree of freedom between
    runs is same-timestamp tie-breaking.
    """
    baseline = runner()
    report = RacecheckReport(
        target=target, replays=replays, baseline_digest=timeline_digest(baseline)
    )
    for replay in range(replays):
        replay_seed = seed * 7919 + replay + 1
        with perturbed_scheduling(replay_seed):
            perturbed = runner()
        digest = timeline_digest(perturbed)
        report.replay_digests.append(digest)
        if digest != report.baseline_digest:
            report.divergences.append(
                _first_divergence(baseline, perturbed, replay, replay_seed)
            )
    return report


# ----------------------------------------------------------------------
# Chaos-scenario frontend
# ----------------------------------------------------------------------
def scenario_timeline(scenario) -> Timeline:
    """Run one chaos scenario and return its canonical fault timeline.

    The timeline is every traced lifecycle stage — ``(time, fault_id,
    stage)`` plus per-stage annotations — in ``(time, fault, stage)``
    order, followed by the scenario's full scorecard.  Everything a
    delay-matrix or wait-chain verdict could influence lands in here, so
    tie-break-dependent behaviour anywhere in detect → steer → reroute →
    score shows up as a digest change.
    """
    from repro.analysis.export import scenario_scorecard_to_dict
    from repro.chaos.campaign import ChaosCampaign
    from repro.obs.report import ObservabilityPlane

    campaign = ChaosCampaign(scenarios=[scenario], observability=ObservabilityPlane())
    card = campaign.run_scenario(scenario)
    events: Timeline = []
    for fault_id in sorted(campaign.obs.tracer.spans):
        span = campaign.obs.tracer.spans[fault_id]
        for stage, at in span.timeline():
            events.append({"t": at, "fault": fault_id, "stage": stage})
    events.sort(key=lambda e: (e["t"], e["fault"], e["stage"]))
    for fp in campaign.obs.tracer.false_positives:
        events.append(
            {
                "t": fp.time,
                "fault": None,
                "stage": "false_positive",
                "victims": [str(v) for v in fp.victims],
            }
        )
    events.append({"scorecard": scenario_scorecard_to_dict(card)})
    return events


def _scenario_factories() -> dict[str, Callable[[int], object]]:
    from repro.chaos import scenario as scenarios

    return {
        "flapping": scenarios.flapping_scenario,
        "cascade": scenarios.cascade_scenario,
        "crash": scenarios.crash_under_loss_scenario,
        "ckpt-corruption": scenarios.checkpoint_corruption_scenario,
        "link-down": scenarios.link_down_scenario,
        "flapping-link": scenarios.flapping_link_scenario,
        "spine-maintenance": scenarios.spine_maintenance_scenario,
        "dual-plane": scenarios.dual_plane_scenario,
        "master-kill": scenarios.master_kill_scenario,
        "failover": scenarios.failover_scenario,
        "collector-partition": scenarios.collector_partition_scenario,
        "agent-massacre": scenarios.agent_massacre_scenario,
    }


def scenario_names() -> list[str]:
    """Scenario factory names accepted by :func:`racecheck_scenario`."""
    return sorted(_scenario_factories())


def racecheck_scenario(
    name: str, replays: int = 5, seed: int = 0
) -> RacecheckReport:
    """Racecheck one named chaos scenario (see :func:`scenario_names`)."""
    factories = _scenario_factories()
    if name not in factories:
        raise KeyError(
            f"unknown scenario {name!r}; expected one of {', '.join(sorted(factories))}"
        )

    def runner() -> Timeline:
        # Rebuilt per replay: scenario objects can carry stateful seeded
        # RNGs (e.g. SteeringFaultModel) whose stream must restart from
        # the seed every run, or replays would diverge for non-ordering
        # reasons and drown the signal.
        return scenario_timeline(factories[name](seed))

    return racecheck(runner, replays=replays, seed=seed, target=f"{name}[s{seed}]")
