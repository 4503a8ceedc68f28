"""Fig. 12: tolerance to dynamic link failures.

Eight concurrent allreduce jobs on the 8-uplinks-per-leaf fabric; one
uplink is deactivated mid-run.  Static traffic engineering (planned
paths only, no chunk re-posting, no reallocation) degrades badly — the
paper measures 160-220 Gbps, average 185.76 — while dynamic load
balancing recovers to 290-335 Gbps (average 301.46), close to the 7/8
ideal of 315 Gbps.
"""

from benchmarks.conftest import hex_digest, run_once
from repro.analysis.stats import summarize
from repro.experiments import fig12


def test_fig12_static_vs_dynamic_after_failure(benchmark):
    result = run_once(benchmark, fig12.run)
    print()
    print(fig12.format_result(result))
    s_static = result.static.summary_after
    s_dynamic = result.dynamic.summary_after
    benchmark.extra_info["static_mean"] = s_static.mean
    benchmark.extra_info["dynamic_mean"] = s_dynamic.mean
    benchmark.extra_info["gain_percent"] = 100 * result.gain

    # Shape: pre-failure at peak; static TE visibly degraded; dynamic LB
    # recovers close to the 7/8 ideal and clearly beats static.
    pre = summarize(list(result.static.before) + list(result.dynamic.before))
    assert pre.mean > 355.0
    assert s_static.mean < 300.0
    assert s_dynamic.mean > 310.0
    assert result.gain > 0.15
    assert abs(s_dynamic.mean - result.ideal_after) < 40.0
    # Bit for bit: every post-failure busbw sample of each mode, in job
    # then operation order, and the mode's mean.
    for mode, (count, digest, mean) in ((result.static, STATIC), (result.dynamic, DYNAMIC)):
        assert len(mode.after) == count
        assert hex_digest(mode.after) == digest
        assert mode.summary_after.mean.hex() == mean


#: Post-failure sample count, :func:`~benchmarks.conftest.hex_digest` of
#: the samples and ``float.hex()`` of their mean, at seed 6.  The run
#: drives the reroute path and the dynamic load balancer's re-weighting.
STATIC = (
    2098,
    "fa7a6555f16ebcc61587e6334a988b303a61921f60c18417d2a14434596cf98f",
    "0x1.c3dbe1bd21eafp+7",
)
DYNAMIC = (
    3180,
    "3cd803d6f196e42542b7da041c471a6ccd79b18f4d04858fc7ca7144ff20ec5b",
    "0x1.554585b759d5dp+8",
)
