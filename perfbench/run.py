"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig10a --seed 0 --seconds 30 --trace 0

Workloads: ``fig10a``, ``chaos_campaign`` and ``detect_1k`` (see
``perfbench/README.md`` for why each exists).  The seed selects one of
5 frozen input variants (``seed % 5``).

Every repetition runs in a fresh interpreter (``rep.py``) with private
metric registries, so no state carries over from one repetition to the
next.  Every time is in reference seconds: wall time scaled by the
host's speed, sampled while the repetition runs (``speed.py``).  Repetitions are started until the next one would overrun
``--seconds``; each one's output is checked against ``golden.json``, and
a mismatch or a crash counts as one failed operation.

* ``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``
  (medians over the repetitions).
* ``--trace 1`` alternates untraced and traced repetitions and prints
  every per-layer metric; the traced repetitions wrap each layer's
  public functions from the benchmark's own files (``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("fig10a", "chaos_campaign", "detect_1k")
#: Frozen input variants; variant 4 is fig10a's EXPERIMENTS.md ECMP seed.
VARIANTS = 5
#: Set-up is cheap to sample on its own; take at least this many samples.
MIN_SETUP_SAMPLES = 5
#: A repetition still running after this long is killed and counted failed.
REP_TIMEOUT_S = 150.0
LOAD_SHAPE = "one process, one thread, closed loop; every repetition in a fresh interpreter"
CLOCK = "reference seconds: wall time scaled to a 1 ms run of speed.kernel"


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result."""


def spawn(workload: str, variant: int, size: str = "full", trace: int = 0,
          setup_only: bool = False):
    """Run one repetition in a fresh interpreter; its result dict or None."""
    cmd = [
        sys.executable, str(REP), "--workload", workload, "--variant", str(variant),
        "--size", size, "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} repetition exceeded {REP_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(lines[-1])


def matches_golden(result, golden: dict, workload: str, size: str, variant: int) -> bool:
    """True when a repetition's output equals its frozen golden output."""
    expected = golden.get(workload, {}).get(size, {}).get(str(variant))
    return result is not None and expected is not None and result["output"] == expected


class Tally:
    """Gated operations: every repetition whose output is checked."""

    def __init__(self, golden: dict, variant: int) -> None:
        self.golden = golden
        self.variant = variant
        self.attempted = 0
        self.failed = 0

    def check(self, result, workload: str, size: str = "full"):
        self.attempted += 1
        if not matches_golden(result, self.golden, workload, size, self.variant):
            self.failed += 1
            print(f"perfbench: {workload} ({size}, variant {self.variant}) "
                  "output differs from golden.json", file=sys.stderr)
        return result


def repeat(seconds: float, once) -> list:
    """Call ``once()`` until the next call would overrun ``seconds``.

    Stops early when a call returns None (a repetition failed).
    """
    results = []
    started = time.perf_counter()
    while True:
        result = once()
        results.append(result)
        elapsed = time.perf_counter() - started
        if result is None or elapsed + elapsed / len(results) > seconds:
            return [r for r in results if r is not None]


def detection_metrics(runs: list) -> dict:
    """Detection figures from closed-loop repetitions (their ``detect`` key).

    Samples of every repetition are pooled: percentiles over all
    evaluation passes, the median over all recoveries, and records over
    total ingest time.
    """
    found = [run["detect"] for run in runs]
    evals_ms = [1000.0 * s for d in found for s in d["eval_s"]]
    return {
        "ingest_records_per_s": sum(d["records"] for d in found) / sum(d["ingest_s"] for d in found),
        "eval_ms_p50": statistics.median(evals_ms),
        "eval_ms_p90": statistics.quantiles(evals_ms, n=10)[8],
        "recovery_s": statistics.median(s for d in found for s in d["recovery_s"]),
        "recall": found[0]["recall"],
        "precision": found[0]["precision"],
    }


def end_to_end(workload: str, variant: int, seconds: float, tally: Tally):
    runs = repeat(seconds, lambda: tally.check(spawn(workload, variant), workload))
    if not runs:
        raise BenchmarkError(f"every {workload} repetition failed")
    setups = [r["setup_s"] for r in runs]
    while len(setups) < MIN_SETUP_SAMPLES:
        sample = spawn(workload, variant, setup_only=True)
        if sample is None:
            raise BenchmarkError(f"{workload} set-up failed")
        setups.append(sample["setup_s"])
    if workload == "detect_1k":
        detect_runs = runs
    else:
        # Every run must report every end-to-end metric.  Workloads whose
        # own run has no journaled detection loop report those metrics
        # from the probe: one detect_1k repetition, run after and apart
        # from the workload's own repetitions.
        probe = tally.check(spawn("detect_1k", variant), "detect_1k")
        if probe is None:
            raise BenchmarkError("detection probe failed")
        detect_runs = [probe]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        **detection_metrics(detect_runs),
    }
    if workload == "chaos_campaign":
        values["recall"] = runs[0]["chaos"]["recall"]
        values["precision"] = runs[0]["chaos"]["precision"]
    return values, runs


def per_layer(workload: str, variant: int, seconds: float, tally: Tally, names: list):
    def once():
        plain = tally.check(spawn(workload, variant), workload)
        traced = tally.check(spawn(workload, variant, trace=1), workload)
        return (plain, traced) if plain is not None and traced is not None else None

    pairs = repeat(seconds, once)
    if not pairs:
        raise BenchmarkError(f"no {workload} traced/untraced pair completed")
    values = {
        name: statistics.median(t["layers"][name] for _p, t in pairs)
        for name in names
        if name != "bench.trace_overhead_frac"
    }
    plain_wall = statistics.median(p["wall_s"] for p, _t in pairs)
    traced_wall = statistics.median(t["wall_s"] for _p, t in pairs)
    values["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    return values, [t for _p, t in pairs]


def git_sha() -> str:
    """HEAD of the checkout, read without running git (may be absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(GOLDEN.read_text())
    variant = args.seed % VARIANTS
    tally = Tally(golden, variant)
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    try:
        if args.trace:
            values, runs = per_layer(args.workload, variant, args.seconds, tally, names)
        else:
            values, runs = end_to_end(args.workload, variant, args.seconds, tally)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec[kind]}
    for name in names:
        print(f"{name:<36} {values[name]:>14.6g} {units[name]}")
    if args.trace:
        print("details " + json.dumps(runs[0]["details"], sort_keys=True))
    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "nproc": os.cpu_count(),
        "load": LOAD_SHAPE,
        "clock": CLOCK,
        "speed_samples": sum(r["speed_samples"] for r in runs),
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "repetitions": len(runs),
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
