"""Fig. 7: the communication-slow syndrome in the delay matrix.

Design-section figure: injected degradations must produce exactly the
matrix signatures the paper draws — a single hot cell for a connection
bottleneck, a row+column intersection for a slow worker — and the
analyzer must localize them.
"""

from benchmarks.conftest import run_once
from repro.core.c4d.events import SuspectKind
from repro.experiments import fig7
from tests.workloads.test_experiments import render_heatmap


def test_fig7_delay_matrix_syndrome(benchmark):
    result = run_once(benchmark, fig7.run)
    print()
    print(fig7.format_result(result))
    print()
    print(render_heatmap(result.matrix))
    benchmark.extra_info["max_ratio"] = result.finding.max_ratio

    # The degraded NIC shows as both an outgoing and an incoming hot
    # cell, which the analyzer fuses into a WORKER suspect at (3, 5).
    assert result.finding.is_anomalous
    assert result.localized
    workers = [s for s in result.finding.suspects if s.kind is SuspectKind.WORKER]
    assert workers
    # The transport's work stealing partially masks the degradation, so
    # the hot cells sit around 2x rather than the raw 4x port ratio.
    assert result.finding.max_ratio >= 1.8
