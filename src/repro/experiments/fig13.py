"""Fig. 13: per-switch-port bandwidth with/without dynamic load balance."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.c4p.load_balance import DynamicLoadBalancer
from repro.netsim.units import GBPS
from repro.workloads.generator import build_cluster, concurrent_allreduce_jobs, fig12_spec

FAILED_UPLINK = ("lup", 0, 0, 0, 0)
#: Simulated seconds at which the uplink fails.
FAILURE_TIME = 0.5
#: Window over which the uplink rates are averaged.
SAMPLE_START = 0.8
SAMPLE_END = 2.3


@dataclass(frozen=True)
class Fig13Result:
    """Post-failure bandwidth (Gbps) per leaf uplink, per mode."""

    static_rates: dict[tuple, float]
    dynamic_rates: dict[tuple, float]

    def _live(self, rates: dict[tuple, float]) -> dict[tuple, float]:
        return {k: v for k, v in rates.items() if k != FAILED_UPLINK}

    @property
    def static_imbalance(self) -> float:
        """Max-min Gbps gap across surviving ports, static TE."""
        live = self._live(self.static_rates)
        return max(live.values()) - min(live.values())

    @property
    def dynamic_imbalance(self) -> float:
        """Max-min Gbps gap across surviving ports, dynamic LB."""
        live = self._live(self.dynamic_rates)
        return max(live.values()) - min(live.values())


def _run_mode(dynamic: bool, seed: int) -> dict[tuple, float]:
    scenario = build_cluster(fig12_spec(), use_c4p=True, ecmp_seed=seed)
    runners = concurrent_allreduce_jobs(
        scenario,
        max_ops=10_000,
        warmup_ops=0,
        stop_time=SAMPLE_END,
        dynamic=dynamic,
    )
    uplinks = scenario.topology.leaf_uplinks(0, 0)
    scenario.network.meter(uplinks)
    for runner in runners:
        runner.start()
    if dynamic:
        balancer = DynamicLoadBalancer([r.context for r in runners])
        balancer.start()
    network = scenario.network
    network.schedule(FAILURE_TIME, lambda: network.fail_link(FAILED_UPLINK))
    network.schedule(SAMPLE_START, network.reset_link_windows)
    network.run(until=SAMPLE_END)
    window = SAMPLE_END - SAMPLE_START
    return {
        link_id: network.link(link_id).window_rate(window) / GBPS
        for link_id in uplinks
    }


def run(seed: int = 6) -> Fig13Result:
    """Measure leaf-uplink utilization after the failure in both modes."""
    return Fig13Result(
        static_rates=_run_mode(False, seed), dynamic_rates=_run_mode(True, seed)
    )


def format_result(result: Fig13Result) -> str:
    """Render per-port bandwidth for both modes."""
    rows = []
    for link_id in sorted(result.static_rates):
        label = "dead uplink" if link_id == FAILED_UPLINK else f"spine{link_id[3]}"
        rows.append(
            (
                label,
                f"{result.static_rates[link_id]:.0f}",
                f"{result.dynamic_rates[link_id]:.0f}",
            )
        )
    header = (
        f"Fig. 13 — leaf uplink bandwidth (Gbps) after failure; "
        f"imbalance static {result.static_imbalance:.0f} vs dynamic "
        f"{result.dynamic_imbalance:.0f}\n"
    )
    return header + format_table(["port", "static TE", "dynamic LB"], rows)
