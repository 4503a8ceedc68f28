"""Tests for the cluster scheduler and backup-pool provisioning."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES, ClusterSpec
from repro.cluster.topology import ClusterTopology
from repro.netsim.network import FlowNetwork
from repro.training.scheduler import ClusterScheduler, SchedulingError


def build(num_nodes=16, backup_ratio=1 / 16):
    spec = TESTBED_16_NODES if num_nodes == 16 else ClusterSpec(num_nodes=num_nodes)
    topo = ClusterTopology(spec, FlowNetwork(), ecmp_seed=0)
    return topo, ClusterScheduler(topo, backup_ratio=backup_ratio)


def test_paper_backup_provisioning():
    # 136-node pool -> 128 active + 8 backups at the paper's 1/16 ratio.
    topo, scheduler = build(num_nodes=16, backup_ratio=1 / 16)
    assert scheduler.backup_nodes == (15,)
    assert scheduler.active_capacity == 15


def test_zero_backup_ratio():
    _topo, scheduler = build(backup_ratio=0.0)
    assert scheduler.backup_nodes == ()
    assert scheduler.active_capacity == 16


def test_invalid_ratio():
    topo, _ = build()
    with pytest.raises(ValueError):
        ClusterScheduler(topo, backup_ratio=1.0)


def test_allocate_contiguous():
    _topo, scheduler = build()
    allocation = scheduler.allocate("job", 4)
    assert allocation.nodes == (0, 1, 2, 3)


def test_allocations_disjoint():
    _topo, scheduler = build()
    a = scheduler.allocate("a", 4)
    b = scheduler.allocate("b", 4)
    assert not set(a.nodes) & set(b.nodes)


def test_duplicate_job_rejected():
    _topo, scheduler = build()
    scheduler.allocate("job", 2)
    with pytest.raises(SchedulingError):
        scheduler.allocate("job", 2)


def test_capacity_exhaustion():
    _topo, scheduler = build()
    scheduler.allocate("big", 15)
    with pytest.raises(SchedulingError):
        scheduler.allocate("more", 1)


def test_release_returns_nodes():
    _topo, scheduler = build()
    scheduler.allocate("job", 4)
    scheduler.release("job")
    assert scheduler.active_capacity == 15
    assert scheduler.allocation_of("job") is None


def test_release_unknown_job():
    _topo, scheduler = build()
    with pytest.raises(SchedulingError):
        scheduler.release("ghost")


def test_allocation_skips_isolated_nodes():
    topo, scheduler = build()
    topo.node(1).isolate()
    allocation = scheduler.allocate("job", 4)
    assert 1 not in allocation.nodes
    # Falls back to non-contiguous-from-zero: next contiguous run is 2-5.
    assert allocation.nodes == (2, 3, 4, 5)


def test_fragmented_fallback():
    topo, scheduler = build()
    for node in (1, 3, 5, 7, 9, 11, 13):
        topo.node(node).isolate()
    allocation = scheduler.allocate("job", 4)
    assert len(allocation.nodes) == 4  # lowest free even nodes


def test_reassign_records_nodes_and_busy_set():
    _topo, scheduler = build()
    scheduler.allocate("job", 4)
    allocation = scheduler.reassign("job", (0, 15, 3))
    assert allocation.nodes == (0, 15, 3)
    assert scheduler.allocation_of("job") == allocation
    # Nodes 1 and 2 left the job, so they are free again.
    assert scheduler.free_nodes()[:4] == [1, 2, 4, 5]
    assert scheduler.utilization() == pytest.approx(2 / 15)


def test_reassign_unknown_job():
    _topo, scheduler = build()
    with pytest.raises(SchedulingError):
        scheduler.reassign("ghost", (0,))


def test_utilization():
    _topo, scheduler = build()
    assert scheduler.utilization() == 0.0
    scheduler.allocate("job", 5)
    assert scheduler.utilization() == pytest.approx(5 / 15)
