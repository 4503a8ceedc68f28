"""Fig. 13: per-switch-port bandwidth with/without dynamic load balance.

Reads the leaf switch's uplink byte counters around the induced link
failure of the Fig. 12 experiment.  Without load balancing the flows
from the dead uplink are rerouted onto a few surviving ports (traffic
increment concentrates there while the rest lose bandwidth); with
dynamic load balancing the surviving ports end up near-evenly loaded.
"""

from benchmarks.conftest import run_once
from repro.experiments import fig13


def test_fig13_uplink_bandwidth_distribution(benchmark):
    result = run_once(benchmark, fig13.run)
    print()
    print(fig13.format_result(result))
    benchmark.extra_info["static_imbalance"] = result.static_imbalance
    benchmark.extra_info["dynamic_imbalance"] = result.dynamic_imbalance

    # The dead link carries nothing.
    assert result.static_rates[fig13.FAILED_UPLINK] < 1.0
    assert result.dynamic_rates[fig13.FAILED_UPLINK] < 1.0
    # Without LB the rerouted flows concentrate (large per-port spread);
    # with LB the surviving ports are near-even.
    assert result.static_imbalance > 1.5 * result.dynamic_imbalance
    live_dynamic = {
        k: v for k, v in result.dynamic_rates.items() if k != fig13.FAILED_UPLINK
    }
    mean_dynamic = sum(live_dynamic.values()) / len(live_dynamic)
    assert all(
        abs(v - mean_dynamic) < 0.25 * mean_dynamic for v in live_dynamic.values()
    )


#: ``float.hex()`` of every leaf-0 uplink rate (Gbps) at seed 6, static
#: then dynamic, uplinks in spine order.  The figure reads these links'
#: byte counters, so the network's accounting on them must not move a
#: bit.
PINNED_STATIC = [
    "0x0.0p+0",
    "0x1.b1473b42e586dp+8",
    "0x1.b1473b42e586dp+8",
    "0x1.0a9f6ff00d49ep+9",
    "0x1.d296304d09fbep+8",
    "0x1.d296304d09fbep+8",
    "0x1.8fffffffffffep+9",
    "0x1.d296304d09fbep+8",
]
PINNED_DYNAMIC = [
    "0x0.0p+0",
    "0x1.8ffffffffff8ap+9",
    "0x1.54efa375ed408p+9",
    "0x1.54efa375ed408p+9",
    "0x1.558f928c0f261p+9",
    "0x1.8ffffffffff9ep+9",
    "0x1.8ffffffffff9ep+9",
    "0x1.8ffffffffff9ep+9",
]


def test_fig13_uplink_rates_are_bit_identical():
    result = fig13.run()
    assert [result.static_rates[k].hex() for k in sorted(result.static_rates)] == PINNED_STATIC
    assert [result.dynamic_rates[k].hex() for k in sorted(result.dynamic_rates)] == PINNED_DYNAMIC
