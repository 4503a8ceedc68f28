"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each repetition runs in a fresh interpreter, exactly as in a benchmark
run, so process-wide state never leaks between cases.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_its_output_gate(workload):
    result = run.spawn(workload, 0, size="tiny")
    assert run.matches_golden(result, GOLDEN, workload, "tiny", 0)
    if workload == "detect_1k":
        assert result["output"]["digest_match"]
        assert result["detect"]["recall"] == result["detect"]["precision"] == 1.0


def test_planted_wrong_golden_value_is_caught():
    result = run.spawn("fig10a", 0, size="tiny")
    planted = copy.deepcopy(GOLDEN)
    busbw = planted["fig10a"]["tiny"]["0"]["with_c4p"]
    busbw[0] = f"{float(busbw[0]) - 0.1:.1f}"
    assert run.matches_golden(result, GOLDEN, "fig10a", "tiny", 0)
    assert not run.matches_golden(result, planted, "fig10a", "tiny", 0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_changes_no_output(workload):
    plain = run.spawn(workload, 1, size="tiny")
    traced = run.spawn(workload, 1, size="tiny", trace=1)
    assert traced["output"] == plain["output"]
    names = {m["name"] for m in SPEC["per_layer"]} - {"bench.trace_overhead_frac"}
    assert set(traced["layers"]) == names


def test_fig10a_golden_is_the_experiments_md_result():
    golden = GOLDEN["fig10a"]["full"]["4"]
    assert golden["with_c4p"] == ["362.0"] * 8
    assert min(golden["without_c4p"], key=float) == "131.7"
    assert max(golden["without_c4p"], key=float) == "164.9"


def test_reference_seconds_scale_wall_time_by_host_speed():
    clock = speed.SpeedClock()
    # A 2 ms kernel run every 20 ms: the host runs at half the reference speed.
    clock.starts = [0.02 * i for i in range(1, 50)]
    clock.ends = [start + 2 * speed.NOMINAL for start in clock.starts]
    clock.stop()
    # 0.5 s of wall time, less the sampler's 25 runs inside it, at half speed.
    assert clock.seconds(0.1, 0.6) == pytest.approx((0.5 - 25 * 0.002) / 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig10a", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
