"""End-to-end observability through the chaos harness (ISSUE PR 3).

The acceptance criteria: a chaos campaign must produce a JSON
observability snapshot whose fault spans walk inject → detect → steer →
recover, with aggregate MTTD/MTTR histograms — renderable by the
``repro obs`` dashboard without re-running anything.
"""

import json

import pytest

from repro.chaos import (
    ChaosCampaign,
    failover_scenario,
    flapping_scenario,
    link_down_scenario,
    master_kill_scenario,
    run_fabric_scenario,
    spine_maintenance_scenario,
)
from repro.chaos.scorecard import matching_episodes
from repro.controlplane import C4DControlPlane
from repro.core.c4d.master import C4DMaster
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import ObservabilityPlane, render_dashboard
from repro.obs.trace import FaultTracer


# ----------------------------------------------------------------------
# Fabric scenarios trace the full lifecycle
# ----------------------------------------------------------------------
def test_fabric_scenario_traces_inject_to_recover():
    registry = MetricsRegistry()
    tracer = FaultTracer(metrics=registry)
    scenario = link_down_scenario(seed=0)
    run_fabric_scenario(scenario, metrics=registry, tracer=tracer)
    assert tracer.spans, "link-down must open at least one fault span"
    span = next(iter(tracer.spans.values()))
    # Announced failure: every lifecycle stage lands on the timeline.
    for stage in ("inject", "first_record", "detect", "steer", "recover"):
        assert stage in span.stages, f"missing {stage} on {span.fault_id}"
    assert span.stages["detect"] >= span.stages["inject"]
    assert span.stages["recover"] >= span.stages["steer"]
    # Announced failures are detected at notification time.
    assert span.attrs["via"] == "notification"
    assert span.mttr is not None and span.mttr >= 0


def test_silent_fabric_fault_detected_by_reprobe():
    registry = MetricsRegistry()
    tracer = FaultTracer(metrics=registry)
    run_fabric_scenario(
        spine_maintenance_scenario(seed=1), metrics=registry, tracer=tracer
    )
    silent = [s for s in tracer.spans.values() if s.kind == "link_down_silent"]
    assert silent, "spine maintenance injects silent faults"
    for span in silent:
        if not span.detected:
            continue
        # Nobody announced the fault: detection can only come from the
        # maintenance re-probe, strictly after injection.
        assert span.attrs["via"] == "reprobe"
        assert span.mttd > 0
    assert any(span.detected for span in silent)


# ----------------------------------------------------------------------
# Campaign-level aggregation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def campaign():
    runner = ChaosCampaign(
        scenarios=[
            flapping_scenario(seed=3),
            link_down_scenario(seed=0),
        ]
    )
    runner.run()
    return runner


def test_campaign_snapshot_meets_acceptance_criteria(campaign):
    snapshot = campaign.obs.snapshot(meta={"title": "campaign"})
    # Per-fault spans present, namespaced by scenario.
    assert snapshot["faults"]
    names = {f["fault_id"] for f in snapshot["faults"]}
    assert any(n.startswith("flapping[s3]/") for n in names)
    assert any(n.startswith("link-down[s0]/") for n in names)
    for span in snapshot["faults"]:
        assert "inject" in span["stages"]
    # Aggregate MTTD/MTTR histograms carry samples.
    accounting = snapshot["accounting"]
    assert accounting["detected"] > 0
    assert accounting["mttd"]["count"] > 0
    assert accounting["mttr"]["count"] > 0
    assert "buckets" in accounting["mttd"]
    # The snapshot is a strict-JSON document.
    json.dumps(snapshot, allow_nan=False)


def test_campaign_snapshot_renders_as_dashboard(campaign):
    snapshot = campaign.obs.snapshot(meta={"title": "campaign"})
    text = render_dashboard(snapshot)
    assert "-- fault timelines --" in text
    assert "inject@" in text
    assert "MTTD: n=" in text


def test_campaign_metrics_cover_every_layer(campaign):
    families = {f.name for f in campaign.obs.registry.families()}
    # One series from each instrumented layer: telemetry, C4D, C4P,
    # the simulator, and the tracer itself.
    assert "telemetry_records_ingested_total" in families
    assert "c4d_evaluations_total" in families
    assert "c4p_routes_acquired_total" in families
    assert "netsim_simulated_seconds_total" in families
    assert "obs_fault_stage_total" in families


def test_scenarios_get_isolated_tracers(campaign):
    # Node ids are reused across scenarios, and one tracer holds every
    # scenario's spans; matching runs per scenario, so it must not leak.
    # The flapping scenario's compute-node victims (small ints) must
    # never appear on a fabric span and vice versa.
    for span in campaign.obs.tracer.spans.values():
        scenario_name = span.fault_id.split("/")[0]
        if span.kind.startswith("link_down"):
            assert scenario_name == "link-down[s0]"
        else:
            assert scenario_name == "flapping[s3]"


# ----------------------------------------------------------------------
# The post-run trace equals a live per-pass trace
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "factory, evaluator",
    [
        (flapping_scenario, C4DMaster),
        (master_kill_scenario, C4DControlPlane),
        (failover_scenario, C4DControlPlane),
    ],
)
def test_post_run_trace_matches_live_passes(monkeypatch, factory, evaluator):
    """The runner traces the final master's history after the run.

    A reference tracer is fed during the run instead, from each live
    evaluation pass's fresh anomalies and new steering actions, matched
    against the scenario's episodes as they happen.  Journal replay
    calls the master directly, so the wrapped plane sees live passes
    only, and a master kill or failover must not change the outcome.
    """
    scenario = factory(0)
    reference = FaultTracer(metrics=MetricsRegistry())
    for episode in scenario.episodes:
        reference.register_fault(
            f"{scenario.name}/{episode.episode_id}",
            kind=episode.kind,
            victims=episode.nodes,
            injected_at=episode.onset,
            windows=episode.windows,
        )
    evaluate = evaluator.evaluate

    def live_pass(self, now, *args, **kwargs):
        known = len(self.steering.actions)
        fresh = evaluate(self, now, *args, **kwargs)
        for anomaly in fresh:
            kind = anomaly.anomaly_type.value
            matched = matching_episodes(scenario.episodes, now, anomaly.suspect_nodes)
            if not matched:
                reference.false_positive(now, anomaly.suspect_nodes, kind)
            for episode in matched:
                reference.stage(
                    f"{scenario.name}/{episode.episode_id}", "detect", now, detector=kind
                )
        for action in self.steering.actions[known:]:
            targets = set(action.isolated_nodes) | set(action.anomaly.suspect_nodes)
            for episode in matching_episodes(scenario.episodes, now, targets):
                fault_id = f"{scenario.name}/{episode.episode_id}"
                reference.stage(fault_id, "steer", now)
                reference.stage(fault_id, "recover", action.ready_at)
        return fresh

    monkeypatch.setattr(evaluator, "evaluate", live_pass)
    campaign = ChaosCampaign(scenarios=[scenario], observability=ObservabilityPlane())
    campaign.run_scenario(scenario)

    def judged(tracer):
        # first_record comes from the feed, which the reference skips.
        return {
            fault_id: (
                {k: t for k, t in span.stages.items() if k != "first_record"},
                span.attrs,
            )
            for fault_id, span in tracer.spans.items()
        }

    traced = campaign.obs.tracer
    assert judged(traced) == judged(reference)
    assert traced.false_positives == reference.false_positives
    assert any("steer" in span.stages for span in reference.spans.values())
