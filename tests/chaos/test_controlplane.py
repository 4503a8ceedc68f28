"""End-to-end tests for the control-plane chaos scenarios."""

from dataclasses import replace

import pytest

from repro.analysis.export import scenario_scorecard_to_dict
from repro.chaos import (
    ChaosCampaign,
    ControlPlanePlan,
    agent_massacre_scenario,
    collector_partition_scenario,
    failover_scenario,
    master_kill_scenario,
    run_controlplane_scenario,
)
from repro.chaos.scenario import ScenarioKind, default_campaign
from repro.obs.metrics import MetricsRegistry


def run(scenario, metrics=None):
    return run_controlplane_scenario(
        scenario, metrics=metrics if metrics is not None else MetricsRegistry()
    )


def series(metrics, name):
    """The single unlabeled instrument of one registry family."""
    family = next(f for f in metrics.families() if f.name == name)
    ((_labels, child),) = family.series()
    return child


def test_master_kill_recovers_to_identical_digest():
    metrics = MetricsRegistry()
    card = run(master_kill_scenario(seed=0), metrics)
    cp = card.controlplane
    assert cp is not None
    assert cp.kills == 1 and cp.recoveries == 1
    assert cp.failovers == 0  # cold restart, not a standby promotion
    assert series(metrics, "controlplane_failovers_total").value == 0
    assert cp.replay_digest_match
    assert cp.entries_replayed > 0
    assert cp.duplicate_actions == 0
    assert cp.stale_actions_executed == 0
    assert card.recall >= cp.baseline_recall
    assert card.completed


def test_failover_fences_the_stale_master():
    metrics = MetricsRegistry()
    card = run(failover_scenario(seed=0), metrics)
    cp = card.controlplane
    assert cp.failovers == 1
    assert cp.recoveries == 1
    assert cp.entries_replayed == 115
    assert cp.replay_digest_match
    # The demoted primary's post-takeover pokes (one evaluate, one
    # snapshot) were rejected, and none of its actions leaked out.
    assert cp.fencing_rejections == 2
    assert series(metrics, "controlplane_recoveries_total").value == 1
    assert series(metrics, "controlplane_failovers_total").value == 1
    assert series(metrics, "controlplane_fence_rejections_total").value == 2
    assert series(metrics, "controlplane_replayed_entries_total").value == 115
    assert series(metrics, "controlplane_replay_seconds").count == 1
    assert cp.stale_actions_executed == 0
    assert cp.duplicate_actions == 0
    assert card.completed


def test_collector_partition_degrades_without_false_isolations():
    card = run(collector_partition_scenario(seed=0))
    cp = card.controlplane
    # Coverage collapsed during the blackout...
    assert cp.coverage_min == 0.0
    # ...and the degraded gate turned it into missed-detection latency,
    # not a false-isolation storm.
    assert cp.blackout_false_isolations == 0
    assert card.false_isolations == 0
    assert card.isolation_storms == 0
    assert cp.backfilled_records > 0
    assert card.completed


def test_agent_massacre_recovers_coverage():
    card = run(agent_massacre_scenario(seed=0))
    cp = card.controlplane
    assert cp.coverage_min == pytest.approx(0.5)
    assert cp.blackout_false_isolations == 0
    assert card.recall >= cp.baseline_recall
    assert card.completed


def test_default_campaign_includes_controlplane_scenarios():
    scenarios = default_campaign(0)
    kinds = [s.kind for s in scenarios]
    assert kinds.count(ScenarioKind.CONTROLPLANE) == 4
    names = {
        s.name.split("[")[0] for s in scenarios if s.kind is ScenarioKind.CONTROLPLANE
    }
    assert names == {
        "master-kill", "failover", "collector-partition", "agent-massacre"
    }


def test_scenario_without_plan_is_rejected():
    scenario = master_kill_scenario(seed=0)
    from dataclasses import replace

    with pytest.raises(ValueError):
        run_controlplane_scenario(
            replace(scenario, controlplane=None), metrics=MetricsRegistry()
        )


def _calm_equivalence_inputs():
    factories = [
        master_kill_scenario,
        failover_scenario,
        collector_partition_scenario,
        agent_massacre_scenario,
    ]
    for factory in factories:
        for seed in (0, 1, 2):
            yield pytest.param(factory(seed), id=f"{factory.__name__}-{seed}")
    # The same factories at the derived seeds a campaign runs them at,
    # for the five campaign seeds the benchmark runs.
    for campaign_seed in (0, 1, 10, 11, 15):
        for scenario in default_campaign(campaign_seed):
            if scenario.kind is ScenarioKind.CONTROLPLANE:
                yield pytest.param(
                    scenario, id=f"campaign{campaign_seed}-{scenario.name}"
                )


@pytest.mark.parametrize("scenario", list(_calm_equivalence_inputs()))
def test_calm_journaled_loop_equals_bare_pipeline_loop(scenario):
    # With no control-plane fault scheduled, the journaled loop (leases,
    # heartbeats, snapshots, the journaled master) must judge exactly
    # like the bare PIPELINE loop on a perfect channel — which is why the
    # recall baseline of a control-plane run may come from the bare loop.
    calm = scenario_scorecard_to_dict(
        run(replace(scenario, controlplane=ControlPlanePlan()))
    )
    bare_scenario = replace(scenario, kind=ScenarioKind.PIPELINE, controlplane=None)
    bare = scenario_scorecard_to_dict(
        ChaosCampaign([bare_scenario]).run_scenario(bare_scenario)
    )
    for card in (calm, bare):
        for key in ("kind", "controlplane", "completed"):
            del card[key]
    assert calm["true_actions"] >= 1 and calm["steps_completed"] > 0
    assert calm == bare
