"""Tests for observability snapshots and the text dashboard."""

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import SNAPSHOT_VERSION, ObservabilityPlane, build_snapshot, render_dashboard
from repro.obs.trace import FaultTracer


def traced_plane():
    plane = ObservabilityPlane()
    tracer = plane.tracer
    tracer.register_fault(
        "s0/f0", "crash", victims=(3,), injected_at=100.0, windows=[(100.0, float("inf"))],
    )
    tracer.stage("s0/f0", "detect", 130.0, detector="hang")
    tracer.stage("s0/f0", "steer", 140.0)
    tracer.stage("s0/f0", "recover", 400.0)
    tracer.register_fault(
        "s0/f1", "crash", victims=(5,), injected_at=50.0, windows=[(50.0, float("inf"))],
    )
    tracer.false_positive(600.0, victims=[9], kind="hang")
    plane.registry.counter("c4d_evaluations_total").inc(7)
    return plane


def test_plane_bundles_registry_and_tracer():
    plane = ObservabilityPlane()
    # The tracer records into the plane's registry, not the default one.
    plane.tracer.register_fault("f0", "crash", injected_at=0.0, windows=[(0.0, float("inf"))])
    snapshot = plane.registry.snapshot()
    stage = snapshot["obs_fault_stage_total"]["series"]
    assert {"labels": {"stage": "inject"}, "value": 1.0} in stage


def test_snapshot_layout_and_ordering():
    snapshot = traced_plane().snapshot(meta={"title": "test run", "seed": 7})
    assert snapshot["version"] == SNAPSHOT_VERSION
    assert snapshot["meta"] == {"title": "test run", "seed": 7}
    # Spans sorted by injection time, each carrying its timeline.
    assert [f["fault_id"] for f in snapshot["faults"]] == ["s0/f1", "s0/f0"]
    detected = snapshot["faults"][1]
    assert detected["stages"]["inject"] == 100.0
    assert detected["mttd_seconds"] == 30.0
    assert snapshot["false_positives"][0]["victims"] == ["9"]
    assert snapshot["accounting"]["detected"] == 1
    assert snapshot["metrics"]["c4d_evaluations_total"]["series"][0]["value"] == 7
    # The whole report must survive a strict JSON encoder.
    json.dumps(snapshot, allow_nan=False)


def test_build_snapshot_without_tracer():
    registry = MetricsRegistry()
    registry.gauge("depth").set(4)
    snapshot = build_snapshot(registry)
    assert snapshot["faults"] == []
    assert snapshot["accounting"] == {}
    assert "depth" in snapshot["metrics"]


def test_render_dashboard_sections():
    snapshot = traced_plane().snapshot(meta={"title": "test run"})
    text = render_dashboard(snapshot)
    assert "=== test run ===" in text
    assert "-- fault accounting --" in text
    assert "faults=2 detected=1 missed=1 recovered=1 false_positives=1" in text
    assert "MTTD: n=1" in text
    assert "-- fault timelines --" in text
    assert "inject@100s -> detect@130s(+30s)" in text
    assert "MISSED" in text  # the undetected span is called out
    assert "-- false positives (1) --" in text
    assert "-- metrics --" in text
    assert "c4d_evaluations_total = 7" in text


def test_render_dashboard_round_trips_through_json():
    plane = traced_plane()
    direct = render_dashboard(plane.snapshot(meta={"title": "t"}))
    reloaded = render_dashboard(json.loads(json.dumps(plane.snapshot(meta={"title": "t"}))))
    assert direct == reloaded


def test_render_dashboard_survives_sorted_key_archives():
    # write_json re-serializes with sort_keys=True, which scrambles the
    # cumulative-bucket insertion order; rendering must re-order by
    # bound, never show a negative per-bucket count.
    plane = traced_plane()
    snapshot = plane.snapshot(meta={"title": "t"})
    sorted_keys = json.loads(json.dumps(snapshot, sort_keys=True))
    assert render_dashboard(sorted_keys) == render_dashboard(snapshot)
    assert "-1 " not in render_dashboard(sorted_keys)


def test_render_dashboard_handles_empty_snapshot():
    text = render_dashboard(build_snapshot(MetricsRegistry(), FaultTracer(MetricsRegistry())))
    assert "observability snapshot" in text
    assert "MTTD: no samples" in text
