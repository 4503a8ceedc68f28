"""Cluster scheduler: job placement and the backup-node pool.

Implements the paper's provisioning strategy (§III-A): "we have
allocated 64 backup GPUs across 8 servers for every 1024 GPUs on 128
servers, ensuring consistent communication and performance for parallel
training on any of the 128 servers within this 136-server pool."  The
scheduler partitions the cluster into an active pool and a backup pool
(1 backup server per 16 active by default), places jobs on contiguous
healthy nodes (topology-aware placement keeps ring edges short), and
records the node set a job is left with after C4D's job steering service
(which owns the backup pool) has swapped its isolated nodes for spares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.topology import ClusterTopology


@dataclass(frozen=True)
class Allocation:
    """A job's node grant."""

    job_name: str
    nodes: tuple[int, ...]


class SchedulingError(RuntimeError):
    """Raised when a request cannot be satisfied."""


class ClusterScheduler:
    """Node accounting for a shared training cluster.

    Parameters
    ----------
    topology:
        The cluster.
    backup_ratio:
        Fraction of nodes reserved as spares; the paper's 8-per-128 is
        1/16.  The highest-numbered nodes are reserved as
        ``backup_nodes``; the job steering service draws from them.
    """

    def __init__(self, topology: ClusterTopology, backup_ratio: float = 1 / 16) -> None:
        if not 0 <= backup_ratio < 1:
            raise ValueError("backup_ratio must be in [0, 1)")
        self.topology = topology
        total = topology.spec.num_nodes
        num_backups = math.ceil(total * backup_ratio) if backup_ratio > 0 else 0
        self._active_pool: list[int] = list(range(total - num_backups))
        self.backup_nodes: tuple[int, ...] = tuple(range(total - num_backups, total))
        self._allocations: dict[str, Allocation] = {}
        self._busy: set[int] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_capacity(self) -> int:
        """Schedulable nodes in the active pool."""
        return len(self.free_nodes())

    def free_nodes(self) -> list[int]:
        """Active-pool nodes that are healthy and unallocated."""
        return [
            node_id
            for node_id in self._active_pool
            if node_id not in self._busy and self.topology.node(node_id).is_schedulable
        ]

    def allocation_of(self, job_name: str) -> Optional[Allocation]:
        """The job's current grant, if any."""
        return self._allocations.get(job_name)

    def utilization(self) -> float:
        """Busy fraction of the active pool."""
        if not self._active_pool:
            return 0.0
        return len(self._busy & set(self._active_pool)) / len(self._active_pool)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def allocate(self, job_name: str, num_nodes: int) -> Allocation:
        """Grant ``num_nodes`` nodes, preferring a contiguous run.

        Contiguity keeps node-ring edges between near neighbours — the
        topology-aware scheduling the paper lists as a first-line
        collision mitigation.  Falls back to the lowest-numbered free
        nodes when no contiguous run exists.
        """
        if job_name in self._allocations:
            raise SchedulingError(f"job {job_name!r} already has an allocation")
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        free = self.free_nodes()
        if len(free) < num_nodes:
            raise SchedulingError(
                f"need {num_nodes} nodes, only {len(free)} free in the active pool"
            )
        chosen = self._contiguous_run(free, num_nodes) or free[:num_nodes]
        allocation = Allocation(job_name=job_name, nodes=tuple(chosen))
        self._allocations[job_name] = allocation
        self._busy.update(chosen)
        return allocation

    def release(self, job_name: str) -> None:
        """Return a job's nodes to the pool."""
        allocation = self._allocations.pop(job_name, None)
        if allocation is None:
            raise SchedulingError(f"no allocation for job {job_name!r}")
        self._busy.difference_update(allocation.nodes)

    def reassign(self, job_name: str, nodes: Sequence[int]) -> Allocation:
        """Record the nodes a job runs on after steering swapped some.

        Nodes leaving the job are no longer busy (isolated ones stay
        unschedulable until repaired); nodes joining it become busy.
        """
        allocation = self._allocations.get(job_name)
        if allocation is None:
            raise SchedulingError(f"no allocation for job {job_name!r}")
        self._busy.difference_update(allocation.nodes)
        allocation = Allocation(job_name=job_name, nodes=tuple(nodes))
        self._allocations[job_name] = allocation
        self._busy.update(allocation.nodes)
        return allocation

    @staticmethod
    def _contiguous_run(free: list[int], count: int) -> Optional[list[int]]:
        run: list[int] = []
        for node_id in free:
            if run and node_id != run[-1] + 1:
                run = []
            run.append(node_id)
            if len(run) == count:
                return run
        return None
