"""Tests for the experiment runners and the CLI plumbing.

The heavy experiments are exercised by ``benchmarks/``; here we check
the runner/result/formatting machinery on the fast ones and the CLI's
dispatch logic.
"""

import inspect
from functools import partial

from repro.cli import main
from repro.core.c4d.delay_matrix import DelayMatrix
from repro.experiments import EXPERIMENTS, fig7, table1, table3


def test_registry_covers_every_table_and_figure():
    assert set(EXPERIMENTS) == {
        "table1", "table3", "fig3", "fig7", "fig9",
        "fig10a", "fig10b", "fig11", "fig12", "fig13", "fig14",
        "ablations",
    }
    for run, format_result, description in EXPERIMENTS.values():
        assert callable(format_result)
        assert description
        # Every experiment takes a seed; fig10 also tells 10a from 10b.
        params = set(inspect.signature(run).parameters)
        assert "seed" in params and params <= {"seed", "oversub_2to1"}
    assert EXPERIMENTS["fig10b"][0].keywords == {"oversub_2to1": True}


def test_table1_runner_result_shape():
    result = table1.run(seed=1)
    assert len(result.rows) == 5
    assert 0.9 < sum(r.proportion for r in result.rows) <= 1.0 + 1e-9
    assert 0 < result.local_fraction < 1
    text = table1.format_result(result)
    assert "NCCL Error" in text and "82.5%" in text


def test_table3_runner_result_shape():
    result = table3.run(seed=3)
    assert result.total_before > result.total_after
    assert result.reduction_factor > 1
    text = table3.format_result(result)
    assert "paper Jun" in text and "Total" in text


def test_fig7_runner_localizes():
    result = fig7.run()
    assert result.localized
    text = fig7.format_result(result)
    assert "localized" in text


def render_heatmap(matrix: DelayMatrix, width: int = 4) -> str:
    """ASCII rendering of the normalized delay matrix (the paper's grid).

    Rows are source workers, columns destination workers; cells show the
    pair's delay relative to the cluster median ('.' for unobserved
    pairs).  Ring communicators populate one off-diagonal band.
    """
    workers = sorted({worker for pair in matrix.pairs for worker in pair})
    baseline = matrix.baseline()
    header = " " * 8 + "".join(f"{w[0]}/{w[1]}".rjust(width + 1) for w in workers)
    lines = [header]
    for src in workers:
        cells = []
        for dst in workers:
            score = matrix.scores.get((src, dst))
            cells.append(
                ".".rjust(width + 1)
                if score is None
                else f"{score / baseline:.1f}".rjust(width + 1)
            )
        lines.append(f"{src[0]}/{src[1]}".ljust(8) + "".join(cells))
    return "\n".join(lines)


def test_fig7_heatmap_renders():
    result = fig7.run()
    heatmap = render_heatmap(result.matrix)
    lines = heatmap.splitlines()
    # Header + one row per worker.
    workers = {worker for pair in result.matrix.pairs for worker in pair}
    assert len(lines) == len(workers) + 1
    assert "." in heatmap  # unobserved pairs


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_run_table3(capsys):
    assert main(["run", "table3"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out


def test_cli_run_with_seed(capsys):
    assert main(["run", "table1", "--seed", "9"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_cli_run_passes_the_seed_to_every_experiment(monkeypatch, capsys):
    calls = {}

    def stub_for(name, run):
        def stub(**kwargs):
            calls[name] = kwargs
            return name

        # Keep what the registry binds, such as fig10b's oversub_2to1.
        return partial(stub, **getattr(run, "keywords", {}))

    for name, (run, _format, description) in list(EXPERIMENTS.items()):
        monkeypatch.setitem(EXPERIMENTS, name, (stub_for(name, run), str, description))
    for name in EXPERIMENTS:
        assert main(["run", name, "--seed", "5"]) == 0
    expected = {name: {"seed": 5} for name in EXPERIMENTS}
    expected["fig10b"]["oversub_2to1"] = True
    assert calls == expected


def test_cli_unknown_experiment(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err
