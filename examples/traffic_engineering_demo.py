#!/usr/bin/env python3
"""C4P demo: path probing, balanced allocation, failure recovery.

Walks through the three C4P mechanisms of §III-B on the simulated
testbed:

1. **path probing** — the master probes every leaf-spine route, finds a
   pre-existing dead link, and catalogs the source ports that steer
   traffic onto specific routes;
2. **balanced allocation** — eight concurrent jobs get plane-preserving,
   spine-balanced QP placements and all reach the NVLink-capped peak;
3. **dynamic load balancing** — a live uplink is killed mid-run and the
   balancer re-allocates displaced QPs and shifts load shares, keeping
   throughput near the 7/8 ideal.

Run:  python examples/traffic_engineering_demo.py
"""

from repro.core.c4p import C4PMaster, DynamicLoadBalancer, PathProber
from repro.workloads.generator import build_cluster, concurrent_allreduce_jobs, fig12_spec


def demo_probing() -> None:
    print("--- path probing at start-up ---")
    scenario = build_cluster(ecmp_seed=4)
    # One leaf-spine link is already broken when C4P arrives.
    scenario.network.fail_link(("lup", 0, 0, 2, 1))
    master = C4PMaster(scenario.topology)
    dead = sorted(master.registry.dead_links)
    print(f"  probe catalogued {len(dead)} dead link(s): {dead}")
    prober = PathProber(scenario.topology)
    results = prober.full_mesh(0, find_ports=True)
    healthy = [r for r in results if r.healthy]
    example = healthy[0]
    print(f"  rail 0: {len(healthy)}/{len(results)} routes healthy; e.g. "
          f"source port {example.src_port} steers onto spine {example.choice.spine} "
          f"(side {example.choice.src_side}, uplink port {example.choice.up_port})")


def demo_balanced_jobs() -> None:
    print("--- balanced allocation across 8 concurrent jobs ---")
    for use_c4p in (False, True):
        scenario = build_cluster(use_c4p=use_c4p, ecmp_seed=4)
        runners = concurrent_allreduce_jobs(scenario, max_ops=6, warmup_ops=2)
        for runner in runners:
            runner.start()
        scenario.network.run()
        series = sorted(runner.mean_busbw_gbps for runner in runners)
        label = "with C4P" if use_c4p else "ECMP    "
        print(f"  {label}: per-job busbw {series[0]:.0f}..{series[-1]:.0f} Gbps, "
              f"mean {sum(series) / len(series):.0f}")


def demo_failure_recovery() -> None:
    print("--- dynamic load balance through a link failure ---")
    for dynamic in (False, True):
        scenario = build_cluster(fig12_spec(), use_c4p=True, ecmp_seed=6)
        runners = concurrent_allreduce_jobs(
            scenario, max_ops=10_000, warmup_ops=0, stop_time=1.5,
            dynamic=dynamic,
        )
        for runner in runners:
            runner.start()
        if dynamic:
            balancer = DynamicLoadBalancer([r.context for r in runners])
            balancer.start()
        scenario.network.schedule(
            0.1, lambda s=scenario: s.network.fail_link(("lup", 0, 0, 0, 0))
        )
        scenario.network.run(until=1.5)
        after = [
            h.busbw_per_nic_gbps
            for r in runners
            for h in r.handles
            if h.start_time > 0.15
        ]
        label = "dynamic LB" if dynamic else "static TE "
        print(f"  {label}: busbw after failure "
              f"{min(after):.0f}..{max(after):.0f} Gbps, "
              f"mean {sum(after) / len(after):.0f} (7/8 ideal = 317)")


def main() -> None:
    demo_probing()
    demo_balanced_jobs()
    demo_failure_recovery()


if __name__ == "__main__":
    main()
