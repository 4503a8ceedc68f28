"""Tests for fault-lifecycle tracing and MTTD/MTTR accounting."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import FaultTracer, latency_histogram

FOREVER = float("inf")


def tracer():
    return FaultTracer(metrics=MetricsRegistry())


# ----------------------------------------------------------------------
# Span staging
# ----------------------------------------------------------------------
def test_register_fault_opens_span_with_inject_stage():
    t = tracer()
    span = t.register_fault(
        "f0", "crash", victims=(3,), injected_at=100.0, windows=[(100.0, FOREVER)],
    )
    assert span.injected_at == 100.0
    assert not span.detected
    assert span.mttd is None


def test_register_fault_is_idempotent():
    t = tracer()
    first = t.register_fault("f0", "crash", injected_at=100.0, windows=[(100.0, FOREVER)])
    second = t.register_fault("f0", "crash", injected_at=999.0, windows=[(999.0, FOREVER)])
    assert first is second
    assert second.injected_at == 100.0


def test_stage_first_occurrence_wins():
    t = tracer()
    t.register_fault("f0", "crash", injected_at=100.0, windows=[(100.0, FOREVER)])
    t.stage("f0", "detect", 130.0, detector="hang")
    t.stage("f0", "detect", 500.0)  # re-detection: timeline unchanged
    span = t.spans["f0"]
    assert span.stages["detect"] == 130.0
    assert span.mttd == pytest.approx(30.0)
    assert span.attrs["detector"] == "hang"


def test_stage_validates_name_and_span():
    t = tracer()
    t.register_fault("f0", "crash", windows=[(0.0, FOREVER)])
    with pytest.raises(ValueError):
        t.stage("f0", "teleport", 1.0)
    with pytest.raises(KeyError):
        t.stage("missing", "detect", 1.0)


def test_timeline_orders_stages_canonically():
    t = tracer()
    t.register_fault("f0", "crash", injected_at=100.0, windows=[(100.0, FOREVER)])
    t.stage("f0", "recover", 400.0)
    t.stage("f0", "detect", 130.0)
    span = t.spans["f0"]
    assert [s for s, _ in span.timeline()] == ["inject", "detect", "recover"]
    assert span.mttr == pytest.approx(300.0)


# ----------------------------------------------------------------------
# Metrics emission
# ----------------------------------------------------------------------
def test_tracer_emits_latency_histograms_and_counters():
    registry = MetricsRegistry()
    t = FaultTracer(metrics=registry)
    t.register_fault("f0", "crash", victims=(3,), injected_at=100.0, windows=[(100.0, FOREVER)])
    t.stage("f0", "detect", 130.0)
    t.stage("f0", "steer", 140.0)
    t.stage("f0", "recover", 400.0)
    t.false_positive(150.0, victims=[9])
    snapshot = registry.snapshot()
    mttd = snapshot["obs_fault_mttd_seconds"]["series"][0]
    mttr = snapshot["obs_fault_mttr_seconds"]["series"][0]
    assert mttd["count"] == 1 and mttd["max"] == pytest.approx(30.0)
    assert mttr["count"] == 1 and mttr["max"] == pytest.approx(300.0)
    assert snapshot["obs_false_positives_total"]["series"][0]["value"] == 1
    assert t.false_positives[0].victims == (9,)


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def test_accounting_summary():
    t = tracer()
    t.register_fault("f0", "crash", victims=(3,), injected_at=100.0, windows=[(100.0, FOREVER)])
    t.register_fault("f1", "crash", victims=(5,), injected_at=200.0, windows=[(200.0, FOREVER)])
    t.stage("f0", "detect", 130.0)
    t.stage("f0", "steer", 140.0)
    t.stage("f0", "recover", 400.0)
    t.false_positive(700.0, victims=[9])
    accounting = t.accounting()
    assert accounting["faults"] == 2
    assert accounting["detected"] == 1
    assert accounting["missed"] == 1
    assert accounting["recovered"] == 1
    assert accounting["false_positives"] == 1
    assert accounting["mttd"]["count"] == 1
    assert accounting["mttr"]["mean"] == pytest.approx(300.0)


def test_latency_histogram_buckets_and_percentiles():
    hist = latency_histogram([3.0, 25.0, 700.0], bounds=(5.0, 30.0, float("inf")))
    assert hist["count"] == 3
    assert hist["buckets"] == {"5": 1, "30": 2, "+Inf": 3}
    assert hist["p50"] == 25.0
    assert hist["min"] == 3.0 and hist["max"] == 700.0


def test_latency_histogram_empty():
    hist = latency_histogram([], bounds=(5.0, float("inf")))
    assert hist == {"count": 0, "buckets": {"5": 0, "+Inf": 0}}


def test_span_to_dict_is_json_safe():
    t = tracer()
    t.register_fault(
        "f0", "link_down", victims=(("rail", 0),), injected_at=100.0,
        windows=[(100.0, float("inf"))],
    )
    t.stage("f0", "detect", 130.0, via="notification")
    payload = t.spans["f0"].to_dict()
    assert payload["windows"] == [[100.0, None]]
    assert payload["victims"] == [str(("rail", 0))]
    assert payload["mttd_seconds"] == pytest.approx(30.0)
    assert payload["attrs"]["via"] == "notification"
