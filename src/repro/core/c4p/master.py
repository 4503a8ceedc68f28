"""The C4P master: multi-tenant path allocation and fabric fault tolerance.

Unlike the single-job C4D master, the C4P master is the control center
for every job in the cluster (Fig. 8): it probes the fabric at start-up,
excludes faulty links, and answers path-allocation requests from every
tenant's ACCL so that

* traffic from a bonded NIC stays in its physical plane (left→left,
  right→right — "forbidding the paths from left ports to right, and
  vice versa"),
* QPs from servers under one leaf spread over all spines, and
* allocation counts stay balanced across every fabric link, across
  jobs.

Runtime fault tolerance (the Fig. 12/13 behaviours) is built from three
pieces:

* a **reverse index** (fabric link → allocated QPs) kept alongside the
  allocation table, so a failure can name its victims in O(1);
* **drain-and-migrate** — :meth:`notify_link_failure` and failed
  periodic re-probes move every QP off a dead link onto the
  least-loaded healthy routes (crash-safe: a migration that finds no
  healthy route rolls back and leaves the QP stranded-but-consistent);
* a **link health state machine** with flap damping
  (:mod:`repro.core.c4p.health`): failed links sit out an exponential
  hold-down and must pass consecutive incremental probes before
  :meth:`maintenance` re-admits them — ``registry.dead_links`` is no
  longer a roach motel that only a full catalog rebuild empties.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.cluster.topology import ClusterTopology, PathChoice
from repro.collective.selectors import ROCE_DST_PORT, PathRequest, QpAllocation
from repro.core.c4p.health import LinkHealthState, LinkHealthTracker
from repro.core.c4p.probing import PathProber
from repro.core.c4p.registry import PathPoolExhausted, PathRegistry
from repro.netsim.routing import FiveTuple
from repro.obs.metrics import MetricsRegistry, get_registry

_qp_counter = itertools.count(500000)


@dataclass
class AllocationRecord:
    """Everything needed to migrate one live QP without its owner."""

    rail: int
    request: PathRequest
    alloc: QpAllocation


def _copy_record(record: AllocationRecord) -> AllocationRecord:
    """A copy no in-place reassignment of ``record`` or its allocation reaches."""
    return replace(record, alloc=replace(record.alloc))


@dataclass(frozen=True)
class DrainReport:
    """Outcome of draining one dead link."""

    link_id: tuple
    #: Allocations moved onto healthy routes (updated in place).
    migrated: tuple[QpAllocation, ...]
    #: QP numbers left on the dead link (no healthy route existed).
    stranded: tuple[int, ...]


@dataclass(frozen=True)
class MaintenanceReport:
    """Outcome of one periodic incremental re-probe pass."""

    probed: int
    #: Links that failed re-probe this pass (silent failures caught).
    newly_dead: tuple[tuple, ...]
    #: Links re-admitted after hold-down + probation.
    recovered: tuple[tuple, ...]
    migrated_qps: int
    stranded_qps: int
    drains: tuple[DrainReport, ...] = field(default=())


class C4PMaster:
    """Cluster-wide traffic-engineering control plane.

    Parameters
    ----------
    topology:
        The shared cluster.
    enforce_plane:
        Apply the left/right plane-preservation rule (ablation knob;
        disabling it reintroduces the Fig. 9 bonded-port imbalance).
    search_ports:
        When True, each allocation runs the authentic source-port search
        so the returned port would steer an unmodified fabric onto the
        planned route.  When False a synthetic port is stamped (the
        resolved path is identical).  The default (None) enables the
        search only when the fabric's joint hash fan-out is small enough
        that every route is reachable from the 16k-port ephemeral range;
        on larger pods a route's exact (uplink, downlink) pair may have
        no matching port, which is why the production system probes and
        catalogs ports rather than solving for them on demand.
    refresh_on_init:
        Probe the fabric and rebuild the dead-link catalog during
        construction (the normal start-up).  Control-plane recovery
        passes False: the catalog is restored from a snapshot instead,
        and a live probe would observe the *current* fabric rather than
        the journaled one.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        enforce_plane: bool = True,
        search_ports: bool | None = None,
        refresh_on_init: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.topology = topology
        obs_registry = get_registry(metrics)
        self.registry = PathRegistry(topology, metrics=obs_registry)
        self.prober = PathProber(topology)
        self.health = LinkHealthTracker(metrics=obs_registry)
        self.enforce_plane = enforce_plane
        if search_ports is None:
            spec = topology.spec
            up_fanout = spec.spines_per_rail * spec.uplink_ports_per_spine
            down_fanout = 2 * spec.uplink_ports_per_spine
            # ~16k ephemeral ports must cover the joint choice space with
            # good probability; keep an 8x margin.
            search_ports = up_fanout * down_fanout <= 2048
        self.search_ports = search_ports
        #: QP number -> live allocation record.
        self._allocated: dict[int, AllocationRecord] = {}
        #: Reverse index: fabric link id -> QP numbers routed over it.
        self._link_qps: dict[tuple, set[int]] = {}
        #: Called with (request, alloc) after each drain migration, so
        #: transports can reroute in-flight traffic onto the new path.
        self.migration_listener: Optional[
            Callable[[PathRequest, QpAllocation], None]
        ] = None
        #: Synthetic-port counter; a plain int so snapshots capture it.
        self._synthetic_port = 0
        #: QP numbers to hand out before consulting the global counter —
        #: loaded by control-plane replay so recovered allocations keep
        #: their journaled identities.
        self._qp_num_override: deque[int] = deque()
        #: Probe outcomes of the most recent maintenance pass (link id →
        #: healthy), for control-plane journaling.
        self.last_probe_results: dict[tuple, bool] = {}
        self._m_allocations = obs_registry.counter(
            "c4p_allocations_total", "QP routes allocated for tenant connections"
        )
        self._m_releases = obs_registry.counter(
            "c4p_releases_total", "QP routes returned to the pool"
        )
        self._m_reallocations = obs_registry.counter(
            "c4p_reallocations_total", "QPs moved onto a fresh route (drain/balancer)"
        )
        self._m_drains = obs_registry.counter(
            "c4p_drains_total", "Dead links drained of their QPs"
        )
        self._m_migrated = obs_registry.counter(
            "c4p_drained_qps_total", "QPs migrated off dead links", labels=("outcome",)
        )
        self._m_migrated_ok = self._m_migrated.labels(outcome="migrated")
        self._m_migrated_stranded = self._m_migrated.labels(outcome="stranded")
        self._m_quarantines = obs_registry.counter(
            "c4p_link_quarantines_total", "Links excluded and put under hold-down"
        )
        self._m_maintenance = obs_registry.counter(
            "c4p_maintenance_passes_total", "Periodic incremental re-probe passes"
        )
        self._m_probes = obs_registry.counter(
            "c4p_maintenance_probes_total", "Links re-probed by maintenance passes"
        )
        if refresh_on_init:
            self.refresh_catalog()

    # ------------------------------------------------------------------
    # Start-up / maintenance probing
    # ------------------------------------------------------------------
    def refresh_catalog(self) -> None:
        """Probe every rail and rebuild the dead-link catalog."""
        now = self.topology.network.now
        self.registry.dead_links.clear()
        for rail in range(self.topology.spec.rails):
            for result in self.prober.full_mesh(rail):
                if result.healthy:
                    continue
                choice = result.choice
                up, down = self.registry.links_of(rail, choice)
                for link in (up, down):
                    if not self.topology.network.link(link).is_up:
                        self._quarantine(link, now)

    def _quarantine(self, link_id: tuple, now: float) -> None:
        """Exclude a link and start (or escalate) its hold-down."""
        self.registry.mark_dead(link_id)
        self._m_quarantines.inc()
        if self.health.state_of(link_id) is not LinkHealthState.QUARANTINED:
            self.health.record_failure(link_id, now)

    def notify_link_failure(
        self, link_id: tuple, now: Optional[float] = None, drain: bool = True
    ) -> DrainReport:
        """Out-of-band failure notification (faster than a re-probe).

        Quarantines the link under the flap-damping hold-down and — when
        ``drain`` is set — immediately migrates every QP routed over it
        (``drain=False`` is the static-traffic-engineering mode, where
        the fabric's own ECMP reconvergence moves displaced flows).
        """
        if now is None:
            now = self.topology.network.now
        self.registry.mark_dead(link_id)
        self._m_quarantines.inc()
        self.health.record_failure(link_id, now)
        if not drain:
            return DrainReport(link_id=link_id, migrated=(), stranded=())
        return self.drain_link(link_id)

    def drain_link(self, link_id: tuple) -> DrainReport:
        """Migrate every QP allocated over a dead link to healthy routes.

        Each victim is reallocated through the crash-safe
        :meth:`reallocate`; QPs for which the plane has no healthy route
        left stay stranded (books untouched) until capacity returns.
        Migrated allocations get their load-balancer weight reset so the
        dynamic balancer re-converges from even shares (Fig. 12b).
        """
        migrated: list[QpAllocation] = []
        stranded: list[int] = []
        for qp_num in sorted(self._link_qps.get(link_id, ())):
            record = self._allocated.get(qp_num)
            if record is None:
                continue
            try:
                self.reallocate(record.request, record.alloc)
            except PathPoolExhausted:
                stranded.append(qp_num)
                continue
            record.alloc.weight = 1.0
            migrated.append(record.alloc)
            if self.migration_listener is not None:
                self.migration_listener(record.request, record.alloc)
        self._m_drains.inc()
        self._m_migrated_ok.inc(len(migrated))
        self._m_migrated_stranded.inc(len(stranded))
        return DrainReport(
            link_id=link_id, migrated=tuple(migrated), stranded=tuple(stranded)
        )

    def maintenance(
        self,
        now: Optional[float] = None,
        probe_results: Optional[dict[tuple, bool]] = None,
    ) -> MaintenanceReport:
        """One incremental re-probe pass: catch silent failures, readmit healed links.

        * every link currently carrying allocations is re-probed; a
          failed probe is treated exactly like an out-of-band failure
          notification (quarantine + drain);
        * every dead link is re-probed through the health state machine;
          links that pass probation are returned to the allocation pool.

        ``probe_results`` (link id → healthy) overrides the live probes;
        control-plane replay passes the journaled outcomes so recovery
        re-derives the pass without touching the current fabric.
        """
        if now is None:
            now = self.topology.network.now
        newly_dead: list[tuple] = []
        recovered: list[tuple] = []
        drains: list[DrainReport] = []

        def probe(links: list[tuple]) -> dict[tuple, bool]:
            if probe_results is not None:
                return {link: probe_results.get(link, True) for link in links}
            return self.prober.reprobe(links)

        active = sorted(
            link
            for link, qps in self._link_qps.items()
            if qps and self.registry.is_usable(link)
        )
        self.last_probe_results = dict(probe(active))
        for link, healthy in self.last_probe_results.items():
            if healthy:
                continue
            newly_dead.append(link)
            drains.append(self.notify_link_failure(link, now))

        dead = sorted(self.registry.dead_links)
        dead_results = probe(dead)
        self.last_probe_results.update(dead_results)
        for link, healthy in dead_results.items():
            state = self.health.record_probe(link, now, healthy)
            if state is LinkHealthState.HEALTHY:
                self.registry.mark_alive(link)
                recovered.append(link)
        self._m_maintenance.inc()
        self._m_probes.inc(len(active) + len(dead))
        return MaintenanceReport(
            probed=len(active) + len(dead),
            newly_dead=tuple(newly_dead),
            recovered=tuple(recovered),
            migrated_qps=sum(len(d.migrated) for d in drains),
            stranded_qps=sum(len(d.stranded) for d in drains),
            drains=tuple(drains),
        )

    # ------------------------------------------------------------------
    # Allocation API (called by per-job selectors)
    # ------------------------------------------------------------------
    def _check_request(self, request: PathRequest) -> None:
        """Raise, mutating nothing, unless both NICs exist on one rail."""
        ends = ((request.src_node, request.src_nic), (request.dst_node, request.dst_nic))
        for node, nic in ends:
            if not 0 <= nic < len(self.topology.node(node).nics):
                raise ValueError(f"node {node} has no nic{nic}")
        if self.topology.rail_of(request.src_nic) != self.topology.rail_of(request.dst_nic):
            raise ValueError(f"cross-rail request: nic{request.src_nic} -> nic{request.dst_nic}")

    def allocate(self, request: PathRequest) -> list[QpAllocation]:
        """Allocate balanced, plane-preserving routes for a connection.

        All or nothing: when a later QP finds no healthy route, the QPs
        already allocated for this request are released — allocation
        table, reverse index and link loads — before
        :class:`PathPoolExhausted` propagates.
        """
        self._check_request(request)
        rail = self.topology.rail_of(request.src_nic)
        src_nic_obj = self.topology.node(request.src_node).nics[request.src_nic]
        dst_nic_obj = self.topology.node(request.dst_node).nics[request.dst_nic]
        allocations: list[QpAllocation] = []
        for q in range(request.num_qps):
            side = q % 2
            dst_side = side if self.enforce_plane else (q // 2) % 2
            try:
                choice = self.registry.acquire(rail, side, dst_side=dst_side)
            except PathPoolExhausted:
                for alloc in allocations:
                    record = self._allocated.pop(alloc.qp_num)
                    self._deindex(record)
                    self.registry.release(rail, alloc.choice)
                raise
            src_port = self._source_port(src_nic_obj.ip_address, dst_nic_obj.ip_address, rail, choice)
            five_tuple = FiveTuple(
                src_ip=src_nic_obj.ip_address,
                dst_ip=dst_nic_obj.ip_address,
                src_port=src_port,
                dst_port=ROCE_DST_PORT,
            )
            path = self.topology.resolve_path(
                request.src_node, request.src_nic, request.dst_node, request.dst_nic, choice
            )
            alloc = QpAllocation(
                qp_num=self._next_qp_num(),
                src_port=src_port,
                five_tuple=five_tuple,
                choice=choice,
                path=path,
            )
            record = AllocationRecord(rail=rail, request=request, alloc=alloc)
            self._allocated[alloc.qp_num] = record
            self._index(record)
            allocations.append(alloc)
        self._m_allocations.inc(len(allocations))
        return allocations

    def release(self, request: PathRequest, allocations: Sequence[QpAllocation]) -> None:
        """Return a connection's routes to the pool."""
        for alloc in allocations:
            record = self._allocated.pop(alloc.qp_num, None)
            if record is not None:
                self._deindex(record)
                self.registry.release(record.rail, record.alloc.choice)
                self._m_releases.inc()

    def reallocate(self, request: PathRequest, alloc: QpAllocation) -> QpAllocation:
        """Move one QP onto a fresh healthy route (drain / balancer action).

        The QP identity and source plane are preserved; only the fabric
        route (and hence source port) changes.  The old route's load is
        released first so the new acquisition sees accurate counts.

        Crash-safe: when no healthy route exists the old entry is rolled
        back — allocation table, reverse index and link loads all read
        exactly as before the attempt — and :class:`PathPoolExhausted`
        propagates for the caller to handle.
        """
        rail = self.topology.rail_of(request.src_nic)
        record = self._allocated.get(alloc.qp_num)
        if record is not None:
            self._deindex(record)
            self.registry.release(record.rail, record.alloc.choice)
        side = alloc.choice.src_side
        dst_side = side if self.enforce_plane else alloc.choice.dst_side
        try:
            choice = self.registry.acquire(rail, side, dst_side=dst_side)
        except PathPoolExhausted:
            if record is not None:
                self.registry.reinstate(record.rail, record.alloc.choice)
                self._index(record)
            raise
        src_nic_obj = self.topology.node(request.src_node).nics[request.src_nic]
        dst_nic_obj = self.topology.node(request.dst_node).nics[request.dst_nic]
        src_port = self._source_port(
            src_nic_obj.ip_address, dst_nic_obj.ip_address, rail, choice
        )
        alloc.src_port = src_port
        alloc.five_tuple = FiveTuple(
            src_ip=src_nic_obj.ip_address,
            dst_ip=dst_nic_obj.ip_address,
            src_port=src_port,
            dst_port=ROCE_DST_PORT,
        )
        alloc.choice = choice
        alloc.path = self.topology.resolve_path(
            request.src_node, request.src_nic, request.dst_node, request.dst_nic, choice
        )
        if record is None:
            record = AllocationRecord(rail=rail, request=request, alloc=alloc)
        record.rail = rail
        record.request = request
        self._allocated[alloc.qp_num] = record
        self._index(record)
        self._m_reallocations.inc()
        return alloc

    # ------------------------------------------------------------------
    # Reverse-index bookkeeping and introspection
    # ------------------------------------------------------------------
    def _index(self, record: AllocationRecord) -> None:
        for link in self.registry.links_of(record.rail, record.alloc.choice):
            self._link_qps.setdefault(link, set()).add(record.alloc.qp_num)

    def _deindex(self, record: AllocationRecord) -> None:
        for link in self.registry.links_of(record.rail, record.alloc.choice):
            qps = self._link_qps.get(link)
            if qps is not None:
                qps.discard(record.alloc.qp_num)
                if not qps:
                    del self._link_qps[link]

    # ------------------------------------------------------------------
    # Snapshot / restore (control-plane journaling)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Detached snapshot of all mutable traffic-engineering state.

        Drains and the load balancer reassign the fields of a live
        allocation in place, so the snapshot holds copies of each
        record and its allocation.
        """
        return {
            "registry": self.registry.snapshot_state(),
            "health": self.health.snapshot_state(),
            "allocated": [_copy_record(record) for _qp, record in sorted(self._allocated.items())],
            "synthetic_port": self._synthetic_port,
        }

    def restore_state(self, state: dict) -> None:
        """Replace mutable state with a :meth:`snapshot_state` dict.

        The reverse index (link → QPs) is derived state and is rebuilt
        from the restored allocation table.
        """
        self.registry.restore_state(state["registry"])
        self.health.restore_state(state["health"])
        self._allocated = {}
        self._link_qps = {}
        for record in map(_copy_record, state["allocated"]):
            self._allocated[record.alloc.qp_num] = record
            self._index(record)
        self._synthetic_port = state["synthetic_port"]

    def qps_on_link(self, link_id: tuple) -> tuple[int, ...]:
        """QP numbers currently routed over one fabric link."""
        return tuple(sorted(self._link_qps.get(link_id, ())))

    def _next_synthetic_port(self) -> int:
        port = 49152 + self._synthetic_port % 16384
        self._synthetic_port += 1
        return port

    def _next_qp_num(self) -> int:
        if self._qp_num_override:
            return self._qp_num_override.popleft()
        return next(_qp_counter)

    def _source_port(self, src_ip: str, dst_ip: str, rail: int, choice: PathChoice) -> int:
        if not self.search_ports:
            return self._next_synthetic_port()
        try:
            return self.prober.find_source_port(src_ip, dst_ip, rail, choice)
        except LookupError:
            # Rare on small fabrics: this exact (uplink, downlink) pair
            # is unreachable from the ephemeral range for this IP pair.
            # Production would pick the nearest catalogued route; the
            # simulation keeps the planned route and stamps a synthetic
            # port.
            return self._next_synthetic_port()
