"""Racecheck tests: a planted ordering race must be caught, clean code not."""

from __future__ import annotations

import random

import pytest

from repro.lint import PerturbedEventQueue, perturbed_scheduling, racecheck
from repro.lint.racecheck import racecheck_scenario, scenario_names, timeline_digest
from repro.netsim.network import FlowNetwork


def racy_runner() -> list:
    """Toy consumer with a deliberate same-instant ordering race.

    Two timers are scheduled for t=1.0; the visible result depends on
    which fires first, i.e. purely on tie-break order.
    """
    order: list[str] = []
    network = FlowNetwork()
    network.schedule(1.0, lambda: order.append("a"))
    network.schedule(1.0, lambda: order.append("b"))
    network.run()
    return [{"order": order}]


def race_free_runner() -> list:
    """Same shape, but the timestamps differ so ordering is causal."""
    order: list[str] = []
    network = FlowNetwork()
    network.schedule(1.0, lambda: order.append("a"))
    network.schedule(2.0, lambda: order.append("b"))
    network.run()
    return [{"order": order}]


def test_racecheck_catches_planted_ordering_race() -> None:
    report = racecheck(racy_runner, replays=10, seed=3, target="toy-race")
    assert report.diverged
    assert report.divergences, "a diverging replay must pinpoint its first delta"
    first = report.divergences[0]
    assert first.index == 0
    assert first.baseline_event == {"order": ["a", "b"]}
    assert first.perturbed_event == {"order": ["b", "a"]}
    assert "DIVERGENT" in report.render()
    payload = report.to_dict()
    assert payload["diverged"] is True
    assert len(payload["replay_digests"]) == 10


def test_racecheck_passes_race_free_runner() -> None:
    report = racecheck(race_free_runner, replays=10, seed=3, target="toy-clean")
    assert not report.diverged
    assert report.replay_digests == [report.baseline_digest] * 10
    assert "no divergence" in report.render()


def test_perturbed_scheduling_restores_the_queue_class() -> None:
    import repro.netsim.network as network_module

    original = network_module.EventQueue
    with perturbed_scheduling(seed=1):
        assert network_module.EventQueue is not original
        queue = FlowNetwork()._queue
        assert isinstance(queue, PerturbedEventQueue)
    assert network_module.EventQueue is original
    assert not isinstance(FlowNetwork()._queue, PerturbedEventQueue)


def test_perturbed_queue_preserves_cross_timestamp_order() -> None:
    fired: list[str] = []
    queue = PerturbedEventQueue(random.Random(0))
    queue.schedule(2.0, lambda: fired.append("late"))
    queue.schedule(1.0, lambda: fired.append("early"))
    for callback in queue.pop_due(10.0):
        callback()
    assert fired == ["early", "late"]


class _ConstantRng:
    """An RNG whose every draw collides."""

    def getrandbits(self, _bits: int) -> int:
        return 7


def test_perturbed_queue_never_compares_callbacks_on_colliding_draws() -> None:
    # Callables define no ordering: a tie that reached them would raise.
    fired: list[int] = []
    queue = PerturbedEventQueue(_ConstantRng())  # type: ignore[arg-type]
    for index in range(1000):
        queue.schedule(1.0, lambda index=index: fired.append(index))
    for callback in queue.pop_due(1.0):
        callback()
    # The counter paired with each draw breaks the ties in scheduling order.
    assert fired == list(range(1000))


def test_timeline_digest_is_content_addressed() -> None:
    a = [{"t": 1.0, "stage": "detect"}]
    assert timeline_digest(a) == timeline_digest([dict(a[0])])
    assert timeline_digest(a) != timeline_digest([{"t": 2.0, "stage": "detect"}])


def test_racecheck_scenario_rejects_unknown_names() -> None:
    with pytest.raises(KeyError):
        racecheck_scenario("no-such-scenario", replays=1)


def test_scenario_names_cover_the_chaos_catalogue() -> None:
    names = scenario_names()
    assert "link-down" in names and "flapping" in names


@pytest.mark.slow
def test_fabric_scenario_is_racecheck_clean() -> None:
    report = racecheck_scenario("link-down", replays=2, seed=0)
    assert not report.diverged, report.render()
