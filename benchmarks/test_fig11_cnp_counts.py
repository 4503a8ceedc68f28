"""Fig. 11: CNP count received at each bonded port (2:1 configuration).

In the congested 2:1 run, DCQCN's ECN marking converts queue buildup
into Congestion Notification Packets back to the senders; the paper
measures ~15,000 CNP/s per bonded port, fluctuating between 12,500 and
17,500.
"""

from benchmarks.conftest import hex_digest, run_once
from repro.experiments import fig11


def test_fig11_cnp_rate_per_bonded_port(benchmark):
    result = run_once(benchmark, fig11.run)
    print()
    print(fig11.format_result(result))
    benchmark.extra_info["mean_cnp_per_second"] = result.mean

    low, high = result.band
    # Shape: every engaged bonded port sees CNPs at the ~10^4/s scale,
    # in a band around the mean rather than a single spike.
    assert len(result.values) >= 64  # most bonded ports engaged
    assert 8_000 < result.mean < 25_000
    assert low > 0.5 * result.mean
    assert high < 2.0 * result.mean
    # Bit for bit: every port's rate, ports in sorted order, and the mean.
    rates = result.rates_per_second
    assert len(rates) == 128
    assert hex_digest(rates[port] for port in sorted(rates)) == PINNED_RATES_DIGEST
    assert result.mean.hex() == "0x1.03e463f5fa00ap+14"


#: :func:`~benchmarks.conftest.hex_digest` of the 128 per-port CNP rates
#: at seed 4.  The run drives the congestion throttles through the solver.
PINNED_RATES_DIGEST = "4742e2fcef1b7a3794f349b9e49172bfd746de7b98179a7d0bc27172869e44d6"
