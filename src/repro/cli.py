"""Command-line interface: run any of the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig9
    python -m repro run table3 --seed 11
    python -m repro run all
    python -m repro chaos --seed 7 --json scorecard.json --obs obs.json
    python -m repro obs                 # instrumented smoke run + dashboard
    python -m repro obs --snapshot obs.json   # render a saved snapshot
    python -m repro lint                # determinism/event-safety static analysis
    python -m repro lint --json         # machine-readable diagnostics
    python -m repro lint --racecheck link-down --replays 5   # dynamic race detector

Each experiment prints the same rows/series the paper reports; see
EXPERIMENTS.md for the recorded paper-vs-measured comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
# Wall-clock timing uses perf_counter: time.time() is wall time subject
# to NTP steps/slews, so a clock adjustment mid-experiment could report
# a negative or wildly wrong duration.
from time import perf_counter

from repro.experiments import EXPERIMENTS, fig10


def _run_one(name: str, seed: int | None) -> None:
    module, description = EXPERIMENTS[name]
    print(f"--- {name}: {description} ---")
    started = perf_counter()
    kwargs = {}
    if seed is not None:
        # Every runner takes exactly one seed-like parameter.
        for param in ("seed", "ecmp_seed"):
            if param in module.run.__code__.co_varnames[: module.run.__code__.co_argcount]:
                kwargs[param] = seed
                break
    if module is fig10:
        kwargs["oversub_2to1"] = name.endswith("b")
    result = module.run(**kwargs)
    print(module.format_result(result))
    print(f"[{name} finished in {perf_counter() - started:.1f}s]\n")


def _run_chaos(
    seed: int,
    json_path: str | None,
    kind: str | None = None,
    obs_path: str | None = None,
) -> int:
    """Run the default chaos campaign and print/export the scorecard."""
    # Imported lazily: the chaos stack is not needed for 'list'/'run'.
    from repro.analysis.export import campaign_scorecard_to_dict, write_json
    from repro.chaos import ChaosCampaign, ScenarioKind, default_campaign
    from repro.codec import encode

    started = perf_counter()
    scenarios = default_campaign(seed)
    if kind is not None:
        valid = sorted(k.value for k in ScenarioKind)
        if kind not in valid:
            print(
                f"unknown chaos kind {kind!r}; valid kinds: {', '.join(valid)}",
                file=sys.stderr,
            )
            return 2
        scenarios = [s for s in scenarios if s.kind.value == kind]
    campaign = ChaosCampaign(scenarios=scenarios)
    print(f"--- chaos: {len(campaign.scenarios)} adversarial scenarios, seed {seed} ---")
    card = campaign.run()
    for scenario in card.scenarios:
        mttr = ", ".join(f"{v:.0f}s" for v in scenario.mttr_values) or "-"
        line = (
            f"{scenario.name:24s} precision={scenario.precision:.2f} "
            f"recall={scenario.recall:.2f} storms={scenario.isolation_storms} "
            f"false_isolations={scenario.false_isolations} "
            f"wasted_backups={scenario.wasted_backups} mttr=[{mttr}]"
        )
        metrics = scenario.fabric or scenario.controlplane
        if metrics is not None:
            line += "".join(f" {key}={value}" for key, value in encode(metrics).items())
        print(line)
    stats = card.mttr_stats()
    print(
        f"campaign: precision={card.precision:.2f} recall={card.recall:.2f} "
        f"storms={card.isolation_storms} false_isolations={card.false_isolations} "
        f"wasted_backups={card.wasted_backups}"
    )
    if stats["count"]:
        print(
            f"MTTR: n={stats['count']} min={stats['min']:.0f}s "
            f"median={stats['median']:.0f}s mean={stats['mean']:.0f}s "
            f"max={stats['max']:.0f}s"
        )
    if json_path:
        write_json(json_path, campaign_scorecard_to_dict(card))
        print(f"scorecard written to {json_path}")
    if obs_path:
        snapshot = campaign.obs.snapshot(
            meta={
                "title": "chaos campaign observability",
                "seed": seed,
                "scenarios": len(campaign.scenarios),
            }
        )
        write_json(obs_path, snapshot)
        print(f"observability snapshot written to {obs_path}")
    print(f"[chaos finished in {perf_counter() - started:.1f}s]")
    return 0


def _run_obs(
    snapshot_path: str | None,
    seed: int,
    json_path: str | None,
    prometheus: bool,
) -> int:
    """Render an observability dashboard.

    With ``--snapshot`` an archived JSON snapshot is rendered as-is;
    otherwise a short instrumented fabric chaos smoke runs first and its
    snapshot is rendered (and optionally dumped with ``--json``).
    """
    from repro.obs import render_dashboard

    if snapshot_path is not None:
        with open(snapshot_path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        print(render_dashboard(snapshot))
        return 0

    from repro.chaos import ChaosCampaign
    from repro.chaos.scenario import link_down_scenario, spine_maintenance_scenario

    campaign = ChaosCampaign(
        scenarios=[link_down_scenario(seed), spine_maintenance_scenario(seed + 1)]
    )
    campaign.run()
    snapshot = campaign.obs.snapshot(
        meta={"title": "instrumented fabric smoke", "seed": seed}
    )
    if prometheus:
        # Rebuild nothing: the campaign's registry renders directly.
        print(campaign.obs.registry.render_prometheus())
    else:
        print(render_dashboard(snapshot))
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=1)
        print(f"\nobservability snapshot written to {json_path}")
    return 0


def _run_lint(
    paths: list[str],
    json_output: bool,
    racecheck_name: str | None,
    replays: int,
    seed: int,
    report_path: str | None,
) -> int:
    """Static determinism lint and/or the schedule-perturbation racecheck.

    Exit status is non-zero when any unsuppressed diagnostic remains or
    any perturbed replay diverges — the CI contract.
    """
    from pathlib import Path

    from repro.lint import lint_paths, racecheck_scenario, scenario_names

    status = 0
    if racecheck_name is None or paths:
        targets = paths or [str(Path(__file__).resolve().parent)]
        report = lint_paths(targets)
        print(report.render_json() if json_output else report.render())
        if not report.ok:
            status = 1
    if racecheck_name is not None:
        if racecheck_name not in scenario_names():
            print(
                f"unknown racecheck scenario {racecheck_name!r}; "
                f"choose from: {', '.join(scenario_names())}",
                file=sys.stderr,
            )
            return 2
        race = racecheck_scenario(racecheck_name, replays=replays, seed=seed)
        print(json.dumps(race.to_dict(), indent=2) if json_output else race.render())
        if report_path:
            with open(report_path, "w", encoding="utf-8") as handle:
                json.dump(race.to_dict(), handle, indent=2)
            print(f"racecheck report written to {report_path}")
        if race.diverged:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the C4 paper's tables and figures on the simulator.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment name from 'list', or 'all'")
    run_parser.add_argument(
        "--seed", type=int, default=None, help="override the experiment's seed"
    )
    run_parser.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="write the process-wide metrics snapshot as JSON after the run",
    )
    chaos_parser = subparsers.add_parser(
        "chaos", help="run the adversarial chaos campaign and print the scorecard"
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=0, help="base seed for the scenario suite"
    )
    chaos_parser.add_argument(
        "--json", default=None, metavar="PATH", help="also write the scorecard as JSON"
    )
    chaos_parser.add_argument(
        "--kind",
        default=None,
        metavar="KIND",
        help="run only scenarios of one kind (pipeline, recovery, fabric, controlplane)",
    )
    chaos_parser.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="write the observability snapshot (fault spans + metrics) as JSON",
    )
    obs_parser = subparsers.add_parser(
        "obs", help="render an observability dashboard (live smoke run or saved snapshot)"
    )
    obs_parser.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="render a previously saved snapshot instead of running a smoke",
    )
    obs_parser.add_argument(
        "--seed", type=int, default=0, help="seed for the smoke scenarios"
    )
    obs_parser.add_argument(
        "--json", default=None, metavar="PATH", help="also write the smoke's snapshot"
    )
    obs_parser.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus text exposition instead of the dashboard",
    )
    lint_parser = subparsers.add_parser(
        "lint", help="determinism & event-safety checks (static rules + racecheck)"
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    lint_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON diagnostics"
    )
    lint_parser.add_argument(
        "--racecheck",
        default=None,
        metavar="SCENARIO",
        help="also run the schedule-perturbation race detector on a named scenario",
    )
    lint_parser.add_argument(
        "--replays", type=int, default=5, help="perturbed replays per racecheck"
    )
    lint_parser.add_argument(
        "--seed", type=int, default=0, help="scenario + perturbation base seed"
    )
    lint_parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the racecheck divergence report as JSON",
    )
    args = parser.parse_args(argv)

    if args.command == "lint":
        return _run_lint(
            args.paths, args.json, args.racecheck, args.replays, args.seed, args.report
        )

    if args.command == "obs":
        return _run_obs(args.snapshot, args.seed, args.json, args.prometheus)

    if args.command == "chaos":
        return _run_chaos(args.seed, args.json, args.kind, args.obs)

    if args.command == "list":
        for name, (_module, description) in EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        return 0

    def dump_default_registry() -> None:
        if not args.obs:
            return
        from repro.obs import build_snapshot
        from repro.obs.metrics import DEFAULT_REGISTRY

        snapshot = build_snapshot(
            DEFAULT_REGISTRY, meta={"title": "experiment run", "experiment": args.experiment}
        )
        with open(args.obs, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=1)
        print(f"metrics snapshot written to {args.obs}")

    if args.experiment == "all":
        for name in EXPERIMENTS:
            _run_one(name, args.seed)
        dump_default_registry()
        return 0
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
        return 2
    _run_one(args.experiment, args.seed)
    dump_default_registry()
    return 0
