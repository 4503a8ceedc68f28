"""Path registry: the C4P master's bookkeeping of fabric resources.

"The C4P master records the numbers of allocated connections on each
path, and allocates paths for new connections considering the occupied
network resources" (§III-B).  The registry tracks per-link QP counts on
the leaf→spine and spine→leaf tiers and hands out the least-loaded
route, restricted to healthy links and (by default) to the requesting
port's physical plane.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.topology import ClusterTopology, PathChoice
from repro.codec import canonical_pairs
from repro.obs.metrics import MetricsRegistry, get_registry


class PathPoolExhausted(RuntimeError):
    """No healthy route satisfies an acquisition (every candidate dead).

    Typed so callers — the master's drain path, the per-job selector —
    can distinguish "this plane has no capacity right now" from a
    programming error and degrade gracefully (leave the QP stranded,
    retry after the next re-probe) instead of crashing the job.
    """


class PathRegistry:
    """Allocation counts and least-loaded route selection."""

    def __init__(
        self, topology: ClusterTopology, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.topology = topology
        #: Allocated QP count per fabric link id.
        self.link_load: dict[tuple, int] = {}
        #: Links the prober (or failure notifications) declared dead.
        self.dead_links: set[tuple] = set()
        #: Round-robin tie-break offset; a plain int (not itertools.count)
        #: so control-plane snapshots can capture and restore it.
        self._rr = 0
        registry = get_registry(metrics)
        self._m_acquired = registry.counter(
            "c4p_routes_acquired_total", "Routes handed out by the path registry"
        )
        self._m_exhausted = registry.counter(
            "c4p_pool_exhaustions_total",
            "Acquisitions that found no healthy route on the requested plane",
        )
        self._m_dead = registry.gauge(
            "c4p_dead_links", "Links currently excluded from allocation"
        )
        self._m_link_load = registry.gauge(
            "c4p_link_load", "Allocated QP count per fabric link", labels=("link",)
        )

    # ------------------------------------------------------------------
    # Health bookkeeping
    # ------------------------------------------------------------------
    def mark_dead(self, link_id: tuple) -> None:
        """Exclude a link from future allocations."""
        self.dead_links.add(link_id)
        self._m_dead.set(len(self.dead_links))

    def mark_alive(self, link_id: tuple) -> None:
        """Return a link to service."""
        self.dead_links.discard(link_id)
        self._m_dead.set(len(self.dead_links))

    def is_usable(self, link_id: tuple) -> bool:
        """Healthy from the master's point of view (catalog, not ground truth)."""
        return link_id not in self.dead_links

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def acquire(self, rail: int, src_side: int, dst_side: int | None = None) -> PathChoice:
        """Reserve the least-loaded healthy route on a rail.

        ``dst_side`` defaults to ``src_side`` — the plane-preserving rule
        that keeps traffic from a left port on left leaves end-to-end,
        preventing receive-side bonded-port imbalance (Fig. 9).

        Selection is greedy two-stage: the least-loaded (spine, uplink
        port) *among spines that still have a healthy downlink to the
        destination side*, then the least-loaded such downlink — which
        keeps both tiers balanced at O(fanout²) cost.  Restricting the
        uplink stage to completable spines is what makes the greedy
        correct under failures: a spine whose last downlink to
        ``dst_side`` died would otherwise win the uplink stage (its
        links are idle precisely because it is unusable) and strand the
        acquisition even though other spines have healthy routes.
        Equal-load ties are broken by rotating the scan start with a
        round-robin counter, so the first wave of allocations (all loads
        zero) spreads across spines instead of piling onto index 0.
        """
        if dst_side is None:
            dst_side = src_side
        spec = self.topology.spec
        topo = self.topology
        offset = self._rr
        self._rr += 1

        ups = [
            (spine, k)
            for spine in topo.enabled_spines(rail)
            for k in range(spec.uplink_ports_per_spine)
        ]
        downs = list(range(spec.uplink_ports_per_spine))

        def best_down_of(spine: int) -> tuple[int, int] | None:
            """Least-loaded healthy downlink of one spine: (port, load)."""
            best = None
            best_load = None
            for j in range(len(downs)):
                k = downs[(offset + j) % len(downs)]
                link = topo.spine_down(rail, spine, dst_side, k)
                if not self.is_usable(link):
                    continue
                load = self.link_load.get(link, 0)
                if best_load is None or load < best_load:
                    best_load = load
                    best = k
            return None if best is None else (best, best_load)

        best_up = None
        best_up_load = None
        best_down = None
        for i in range(len(ups)):
            spine, k = ups[(offset + i) % len(ups)]
            link = topo.leaf_up(rail, src_side, spine, k)
            if not self.is_usable(link):
                continue
            load = self.link_load.get(link, 0)
            if best_up_load is not None and load >= best_up_load:
                continue
            down = best_down_of(spine)
            if down is None:
                continue
            best_up_load = load
            best_up = (spine, k)
            best_down = down[0]
        if best_up is None:
            self._m_exhausted.inc()
            raise PathPoolExhausted(
                f"no healthy route on rail {rail} from side {src_side} "
                f"to side {dst_side}"
            )
        spine, up_port = best_up

        choice = PathChoice(
            src_side=src_side,
            spine=spine,
            up_port=up_port,
            dst_side=dst_side,
            down_port=best_down,
        )
        self._count(rail, choice, +1)
        self._m_acquired.inc()
        return choice

    def release(self, rail: int, choice: PathChoice) -> None:
        """Return a previously acquired route's load."""
        self._count(rail, choice, -1)

    def reinstate(self, rail: int, choice: PathChoice) -> None:
        """Re-count a released route (rollback of a failed reallocation).

        Unlike :meth:`acquire` this never selects — it restores the load
        of a specific, previously held route so a failed migration
        leaves the books exactly as they were.
        """
        self._count(rail, choice, +1)

    def load_of(self, link_id: tuple) -> int:
        """Current allocated QP count on one link."""
        return self.link_load.get(link_id, 0)

    def links_of(self, rail: int, choice: PathChoice) -> tuple[tuple, tuple]:
        """The (uplink, downlink) fabric link ids a route occupies."""
        return (
            self.topology.leaf_up(rail, choice.src_side, choice.spine, choice.up_port),
            self.topology.spine_down(rail, choice.spine, choice.dst_side, choice.down_port),
        )

    # ------------------------------------------------------------------
    # Snapshot / restore (control-plane journaling)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Detached snapshot: the tuple-keyed load map becomes sorted pairs."""
        return {
            "link_load": canonical_pairs(self.link_load),
            "dead_links": frozenset(self.dead_links),
            "rr": self._rr,
        }

    def restore_state(self, state: dict) -> None:
        """Replace bookkeeping with a :meth:`snapshot_state` dict."""
        self.link_load = dict(state["link_load"])
        self.dead_links = set(state["dead_links"])
        self._rr = state["rr"]
        self._m_dead.set(len(self.dead_links))
        for link, load in self.link_load.items():
            self._m_link_load.labels(link=link).set(load)

    def _count(self, rail: int, choice: PathChoice, delta: int) -> None:
        for link in self.links_of(rail, choice):
            self.link_load[link] = self.link_load.get(link, 0) + delta
            if self.link_load[link] < 0:
                raise AssertionError(f"negative load on {link!r}")
            self._m_link_load.labels(link=link).set(self.link_load[link])
