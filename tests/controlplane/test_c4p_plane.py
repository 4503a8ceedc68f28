"""Tests for the journaled, fenced, recoverable C4P master."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.selectors import PathRequest
from repro.controlplane import FencedOut, ResilientC4PMaster
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry


def topo():
    return ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=1)


def request(comm="comm0", src=0, dst=4, num_qps=4):
    return PathRequest(
        comm, "job0", src_node=src, src_nic=0, dst_node=dst, dst_nic=0, num_qps=num_qps
    )


def exercised_master(metrics):
    """A master with allocations, a release, two failures, and maintenance."""
    master = ResilientC4PMaster(topo(), metrics=metrics)
    allocs = master.allocate(request())
    extra = master.allocate(request(src=1, dst=5, num_qps=2))
    master.release(request(src=1, dst=5, num_qps=2), extra[:1])
    master.notify_link_failure(allocs[0].path[0], now=10.0)
    master.snapshot()
    # A fabric uplink under a live QP: the replayed suffix drains it.
    master.notify_link_failure(allocs[1].path[2], now=20.0)
    master.maintenance(now=30.0)
    return master


def recovery_instance(master, metrics):
    return ResilientC4PMaster(
        topo(), store=master.store, active=False, refresh_on_init=False, metrics=metrics
    )


def test_recovery_replays_to_identical_digest():
    metrics = MetricsRegistry()
    master = exercised_master(metrics)
    digest = master.state_digest()
    successor = recovery_instance(master, metrics)
    info = successor.recover(now=40.0)
    assert info["digest"] == digest
    # The mid-history snapshot bounded replay to the suffix.
    snap = master.store.latest_snapshot()
    assert info["entries_replayed"] == len(list(master.store.entries_after(snap.seq)))
    assert master.store.recoveries == 1


def test_rejected_request_is_not_journaled():
    metrics = MetricsRegistry()
    master = exercised_master(metrics)
    digest = master.state_digest()
    load = dict(master.registry.link_load)
    entries = len(master.store)
    cross_rail = PathRequest(
        "bad", "job0", src_node=0, src_nic=0, dst_node=1, dst_nic=1, num_qps=2
    )
    with pytest.raises(ValueError):
        master.allocate(cross_rail)
    assert master.registry.link_load == load
    assert len(master.store) == entries
    # A journaled bad request would make every later replay raise.
    info = recovery_instance(master, metrics).recover(now=40.0)
    assert info["digest"] == digest


def test_stale_master_is_fenced():
    metrics = MetricsRegistry()
    master = exercised_master(metrics)
    successor = recovery_instance(master, metrics)
    successor.recover(now=40.0)
    # A zombie C4P master may neither allocate nor fail links.
    with pytest.raises(FencedOut):
        master.allocate(request(comm="comm1", src=2, dst=6))
    with pytest.raises(FencedOut):
        master.notify_link_failure(("x", "y"), now=50.0)
    assert master.active is False
    assert master.store.fence_rejections == 2


def test_recovered_master_allocates_fresh_qp_numbers():
    metrics = MetricsRegistry()
    master = exercised_master(metrics)
    replayed_qps = set(master._allocated)
    successor = recovery_instance(master, metrics)
    successor.recover(now=40.0)
    assert set(successor._allocated) == replayed_qps
    fresh = successor.allocate(request(comm="comm1", src=2, dst=6, num_qps=2))
    # The global QP counter survives the journal round-trip: new
    # allocations never collide with replayed ones.
    assert not replayed_qps.intersection(a.qp_num for a in fresh)


def test_compound_operations_journal_one_entry_per_cause():
    metrics = MetricsRegistry()
    master = ResilientC4PMaster(topo(), metrics=metrics)
    allocs = master.allocate(request())
    before = list(master.store.kinds)
    # A silent failure: only the maintenance pass's re-probe finds it.
    dead = allocs[0].path[2]
    master.topology.network.fail_link(dead)
    report = master.maintenance(now=6.0)
    assert dead in report.newly_dead
    assert report.migrated_qps > 0
    after = list(master.store.kinds)
    # The nested quarantine and drain journal nothing of their own —
    # replay re-derives them from the single maintenance entry.
    assert after == before + ["maintenance"]
