"""Fig. 10: global traffic engineering across 8 concurrent jobs.

(a) 1:1 oversubscription: without C4P the jobs collide on spine uplinks
and spread widely (paper: 171.93-263.27 Gbps); with C4P every job sits
within a few Gbps of the NVLink-capped peak (paper: 353.86-360.57,
+70.3% on average).

(b) 2:1 (half the spines disabled, DCQCN engaged): C4P keeps the jobs
tightly grouped just below peak (paper: 11.27 Gbps max-min gap, +65.55%
over the baseline).
"""

from benchmarks.conftest import run_once
from repro.experiments import fig10


def test_fig10a_one_to_one(benchmark):
    result = run_once(benchmark, lambda: fig10.run(oversub_2to1=False))
    print()
    print(fig10.format_result(result))
    s_with, s_without = result.summary_with, result.summary_without
    benchmark.extra_info["gain_percent"] = 100 * result.mean_gain
    benchmark.extra_info["spread_with_c4p"] = s_with.spread

    # Shape: uniform near-peak with C4P; degraded and spread without.
    assert s_with.minimum > 350.0
    assert s_with.spread < 15.0
    assert s_without.maximum < 300.0
    assert s_without.spread > 15.0
    assert result.mean_gain > 0.5  # paper: +70.3%


def test_fig10b_two_to_one(benchmark):
    result = run_once(benchmark, lambda: fig10.run(oversub_2to1=True))
    print()
    print(fig10.format_result(result))
    s_with = result.summary_with
    benchmark.extra_info["gain_percent"] = 100 * result.mean_gain
    benchmark.extra_info["spread_with_c4p"] = s_with.spread

    # Shape: substantial improvement (paper +65.55%), with a small but
    # non-zero spread from DCQCN rate fluctuation (paper: 11.27 Gbps).
    assert result.mean_gain > 0.4
    assert 1.0 < s_with.spread < 30.0
    assert s_with.mean < 362.0  # congestion costs something vs Fig 10a
    # Bit for bit: the run exercises the congestion path of the solver.
    assert [v.hex() for v in result.without_c4p] == FIG10B_WITHOUT_C4P
    assert [v.hex() for v in result.with_c4p] == FIG10B_WITH_C4P


#: ``float.hex()`` of each job's busbw (Gbps) in the 2:1 run at seed 4,
#: in job order.
FIG10B_WITHOUT_C4P = ["0x1.8ffffffffffffp+7"] * 8
FIG10B_WITH_C4P = [
    "0x1.4cd08e89e7ec4p+8",
    "0x1.491fe278b9e7ap+8",
    "0x1.44496ae93124fp+8",
    "0x1.48c35af6fd5b4p+8",
    "0x1.493daf9bf50c8p+8",
    "0x1.429e0a3b34adcp+8",
    "0x1.4914359ff83eap+8",
    "0x1.45216fd8aa777p+8",
]
