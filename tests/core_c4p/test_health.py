"""Tests for the link health state machine and flap damping."""

from repro.core.c4p.health import LinkHealthState, LinkHealthTracker

LINK = ("lup", 0, 0, 3, 1)


def tracker(monkeypatch=None, **constants):
    """A tracker, with class constants such as ``FLAP_WINDOW`` patched."""
    for name, value in constants.items():
        monkeypatch.setattr(LinkHealthTracker, name, value)
    return LinkHealthTracker()


def test_unknown_link_is_healthy():
    t = tracker()
    assert t.state_of(LINK) is LinkHealthState.HEALTHY
    assert t.quarantined_until(LINK) == float("-inf")


def test_failure_quarantines_with_base_holddown():
    t = tracker()
    hold = t.record_failure(LINK, now=100.0)
    assert hold == 30.0
    assert t.state_of(LINK) is LinkHealthState.QUARANTINED
    assert t.quarantined_until(LINK) == 130.0


def test_repeat_failures_escalate_exponentially():
    t = tracker()
    assert t.record_failure(LINK, 0.0) == 30.0
    assert t.record_failure(LINK, 50.0) == 60.0
    assert t.record_failure(LINK, 100.0) == 120.0
    assert t.record_failure(LINK, 150.0) == 240.0
    assert t.record_failure(LINK, 200.0) == 480.0
    assert t.record_failure(LINK, 250.0) == 480.0  # capped


def test_failures_age_out_of_flap_window(monkeypatch):
    t = tracker(monkeypatch, FLAP_WINDOW=100.0)
    t.record_failure(LINK, 0.0)
    t.record_failure(LINK, 10.0)
    # Both old failures are outside the window by now: back to base.
    assert t.record_failure(LINK, 500.0) == 30.0


def test_probes_during_holddown_are_ignored_both_ways(monkeypatch):
    t = tracker(monkeypatch, HOLD_DOWN_BASE=100.0)
    t.record_failure(LINK, 0.0)
    # A flap's transient "up" must not start recovery...
    assert t.record_probe(LINK, 10.0, healthy=True) is LinkHealthState.QUARANTINED
    # ...and a still-dead link must not escalate once per probe tick.
    assert t.record_probe(LINK, 20.0, healthy=False) is LinkHealthState.QUARANTINED
    assert t.quarantined_until(LINK) == 100.0  # unchanged
    # The ignored probe recorded no failure: the next one escalates once.
    assert t.record_failure(LINK, 200.0) == 200.0


def test_recovery_requires_probation_streak():
    t = tracker()
    t.record_failure(LINK, 0.0)
    assert t.record_probe(LINK, 31.0, True) is LinkHealthState.PROBATION
    assert t.record_probe(LINK, 32.0, True) is LinkHealthState.PROBATION
    assert t.record_probe(LINK, 33.0, True) is LinkHealthState.HEALTHY
    assert t.state_of(LINK) is LinkHealthState.HEALTHY


def test_failed_probe_in_probation_requarantines_escalated():
    t = tracker()
    t.record_failure(LINK, 0.0)
    assert t.record_probe(LINK, 31.0, True) is LinkHealthState.PROBATION
    assert t.record_probe(LINK, 32.0, False) is LinkHealthState.QUARANTINED
    # Second failure in the window: escalated hold-down.
    assert t.quarantined_until(LINK) == 32.0 + 60.0


def test_relapse_after_recovery_resumes_escalation(monkeypatch):
    t = tracker(monkeypatch, PROBATION_PROBES=1)
    t.record_failure(LINK, 0.0)
    assert t.record_probe(LINK, 31.0, True) is LinkHealthState.HEALTHY
    # History survives recovery: the relapse is the second failure.
    assert t.record_failure(LINK, 40.0) == 60.0

