"""Tests for the zero-dependency metrics registry."""

import json
import math

import pytest

from repro.obs.metrics import DEFAULT_REGISTRY, Gauge, Histogram, MetricsRegistry, get_registry


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_increments_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("events_total")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == pytest.approx(3.5)
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_gauge_set_inc_dec():
    gauge = MetricsRegistry().gauge("depth")
    gauge.set(10)
    gauge.inc(2)
    gauge.dec(7)
    assert gauge.value == pytest.approx(5.0)


def test_gauge_callback_read_and_failure_to_nan():
    gauge = Gauge()
    gauge.set_function(lambda: 42)
    assert gauge.read() == 42.0
    # A torn-down owner must not break snapshotting.
    gauge.set_function(lambda: 1 / 0)
    assert math.isnan(gauge.read())


def test_histogram_moments_and_quantiles():
    hist = Histogram(buckets=(1.0, 10.0))
    for value in (0.5, 2.0, 3.0, 20.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.sum == pytest.approx(25.5)
    assert hist.min == 0.5
    assert hist.max == 20.0
    assert hist.mean == pytest.approx(25.5 / 4)
    assert hist.quantile(0.0) == 0.5
    assert hist.quantile(1.0) == 20.0


def test_histogram_buckets_cumulative_with_forced_inf():
    hist = Histogram(buckets=(1.0, 10.0))  # +Inf appended automatically
    for value in (0.5, 2.0, 3.0, 20.0):
        hist.observe(value)
    assert hist.buckets() == {"1": 1, "10": 3, "+Inf": 4}


def test_histogram_empty_quantile_and_mean_are_nan():
    hist = Histogram()
    assert math.isnan(hist.quantile(0.5))
    assert math.isnan(hist.mean)


# ----------------------------------------------------------------------
# Families and labels
# ----------------------------------------------------------------------
def test_labeled_family_hands_out_cached_children():
    registry = MetricsRegistry()
    family = registry.counter("verdicts_total", labels=("detector",))
    child = family.labels(detector="hang")
    child.inc(3)
    # Same label set -> same child instrument.
    assert family.labels(detector="hang") is child
    assert family.labels(detector="slow").value == 0.0


def test_labeled_family_rejects_wrong_label_names():
    family = MetricsRegistry().counter("verdicts_total", labels=("detector",))
    with pytest.raises(ValueError):
        family.labels(node=3)


def test_labeled_family_rejects_unlabeled_use():
    family = MetricsRegistry().counter("verdicts_total", labels=("detector",))
    with pytest.raises(ValueError):
        family.inc()


def test_registration_is_idempotent():
    registry = MetricsRegistry()
    first = registry.counter("steps_total", "help text")
    second = registry.counter("steps_total")
    assert first is second


def test_registration_rejects_kind_and_label_mismatch():
    registry = MetricsRegistry()
    registry.counter("steps_total")
    with pytest.raises(ValueError):
        registry.gauge("steps_total")
    registry.counter("labeled_total", labels=("kind",))
    with pytest.raises(ValueError):
        registry.counter("labeled_total", labels=("other",))


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_snapshot_is_json_safe_including_nan():
    registry = MetricsRegistry()
    registry.counter("events_total").inc(2)
    registry.gauge("broken").set_function(lambda: 1 / 0)
    registry.histogram("latency_seconds")  # no observations: NaN stats
    snapshot = registry.snapshot()
    # NaN must serialize as null, not crash a strict encoder.
    encoded = json.loads(json.dumps(snapshot, allow_nan=False))
    assert encoded["events_total"]["series"][0]["value"] == 2
    assert encoded["broken"]["series"][0]["value"] is None
    hist = encoded["latency_seconds"]["series"][0]
    assert hist["count"] == 0
    assert hist["mean"] is None


def test_render_prometheus_exposition():
    registry = MetricsRegistry()
    registry.counter("events_total", "Things that happened").inc(3)
    registry.counter("verdicts_total", labels=("detector",)).labels(
        detector="hang"
    ).inc()
    hist = registry.histogram("latency_seconds", buckets=(1.0, float("inf")))
    hist.observe(0.5)
    text = registry.render_prometheus()
    assert "# HELP events_total Things that happened" in text
    assert "# TYPE events_total counter" in text
    assert "events_total 3" in text
    assert 'verdicts_total{detector="hang"} 1' in text
    assert 'latency_seconds_bucket{le="1"} 1' in text
    assert 'latency_seconds_bucket{le="+Inf"} 1' in text
    assert "latency_seconds_sum 0.5" in text
    assert "latency_seconds_count 1" in text


def test_held_undoes_counters_and_histograms_of_matching_families():
    registry = MetricsRegistry()
    ingested = registry.counter("c4d_ingested_total", labels=("kind",))
    bound = ingested.labels(kind="op")  # held by a component across the block
    bound.inc(3)
    latency = registry.histogram("c4d_eval_seconds")
    latency.observe(0.5)
    depth = registry.gauge("c4d_depth")
    other = registry.counter("store_replayed_total")
    before = registry.snapshot()
    with registry.held(("c4d_",)):
        bound.inc(5)
        ingested.labels(kind="message").inc()  # a series the block creates
        latency.observe(2.0)
        depth.set(7)
        other.inc(4)
    after = registry.snapshot()
    for name in ("c4d_ingested_total", "c4d_eval_seconds"):
        assert after[name] == before[name]
    assert depth.value == 7.0  # gauges report current state
    assert other.value == 4.0  # families outside the prefixes count on
    bound.inc()  # the component's bound child still feeds the family
    assert ingested.labels(kind="op").value == 4.0


def test_get_registry_resolves_default():
    own = MetricsRegistry()
    assert get_registry(own) is own
    assert get_registry(None) is DEFAULT_REGISTRY
