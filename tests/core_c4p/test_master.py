"""Tests for the C4P master's allocation rules and fault handling."""

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.selectors import PathRequest
from repro.core.c4p.health import LinkHealthState
from repro.core.c4p.master import C4PMaster
from repro.core.c4p.registry import PathPoolExhausted
from repro.netsim.network import FlowNetwork


def build(enforce_plane=True, search_ports=True):
    topo = ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=3)
    return topo, C4PMaster(topo, enforce_plane=enforce_plane, search_ports=search_ports)


def request(src=0, dst=1, nic=0, qps=2, comm="c0"):
    return PathRequest(
        comm_id=comm, job_id="j", src_node=src, src_nic=nic,
        dst_node=dst, dst_nic=nic, num_qps=qps,
    )


def test_plane_rule_enforced():
    _topo, master = build()
    allocs = master.allocate(request(qps=4))
    for alloc in allocs:
        assert alloc.choice.src_side == alloc.choice.dst_side


def test_qps_split_across_ports():
    _topo, master = build()
    allocs = master.allocate(request(qps=2))
    assert {a.choice.src_side for a in allocs} == {0, 1}


def test_source_ports_actually_steer():
    # The authentic property: the returned port makes plain ECMP hashing
    # reproduce the planned route.
    topo, master = build()
    alloc = master.allocate(request())[0]
    choice = topo.ecmp_choice(0, alloc.five_tuple, src_side=alloc.choice.src_side)
    assert choice == alloc.choice


def test_synthetic_ports_mode():
    _topo, master = build(search_ports=False)
    allocs = master.allocate(request(qps=4))
    assert len({a.src_port for a in allocs}) == 4


def test_balanced_across_spines():
    topo, master = build(search_ports=False)
    spine_counts = {}
    for i in range(64):
        for alloc in master.allocate(request(src=i % 16, dst=(i + 1) % 16, comm=f"c{i}")):
            key = (alloc.choice.src_side, alloc.choice.spine, alloc.choice.up_port)
            spine_counts[key] = spine_counts.get(key, 0) + 1
    assert max(spine_counts.values()) - min(spine_counts.values()) <= 1


def test_release_frees_load():
    topo, master = build(search_ports=False)
    req = request()
    allocs = master.allocate(req)
    loads_before = dict(master.registry.link_load)
    master.release(req, allocs)
    assert all(v == 0 for v in master.registry.link_load.values())
    assert any(v > 0 for v in loads_before.values())


def test_catalog_excludes_failed_links():
    topo = ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=3)
    dead = topo.leaf_up(0, 0, 4, 2)
    topo.network.fail_link(dead)
    master = C4PMaster(topo, search_ports=False)
    assert dead in master.registry.dead_links
    for i in range(128):
        alloc = master.allocate(request(comm=f"c{i}", qps=1))[0]
        assert (alloc.choice.spine, alloc.choice.up_port) != (4, 2) or alloc.choice.src_side != 0


def test_notify_link_failure():
    _topo, master = build(search_ports=False)
    link = master.topology.leaf_up(1, 0, 0, 0)
    master.notify_link_failure(link)
    assert link in master.registry.dead_links


def test_reallocate_moves_route():
    topo, master = build(search_ports=False)
    req = request()
    alloc = master.allocate(req)[0]
    old_choice = alloc.choice
    # Kill the allocated uplink, notify, reallocate.
    dead = topo.leaf_up(0, old_choice.src_side, old_choice.spine, old_choice.up_port)
    topo.network.fail_link(dead)
    master.notify_link_failure(dead)
    master.reallocate(req, alloc)
    assert (alloc.choice.spine, alloc.choice.up_port) != (
        old_choice.spine,
        old_choice.up_port,
    )
    assert alloc.choice.src_side == old_choice.src_side  # plane preserved
    for link_id in alloc.path:
        assert topo.network.link(link_id).is_up


def test_disabled_spines_excluded():
    topo = ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=3)
    for spine in (4, 5, 6, 7):
        topo.disable_spine(0, spine)
    master = C4PMaster(topo, search_ports=False)
    for i in range(32):
        alloc = master.allocate(request(comm=f"c{i}", qps=1))[0]
        assert alloc.choice.spine < 4


# ----------------------------------------------------------------------
# Runtime fault tolerance: reverse index, drain-and-migrate, re-probe
# ----------------------------------------------------------------------
def books_of(master):
    """Expected link loads recomputed from the live allocation table."""
    expected = {}
    for record in master._allocated.values():
        for link in master.registry.links_of(record.rail, record.alloc.choice):
            expected[link] = expected.get(link, 0) + 1
    return expected


def residual_qps_on_dead_links(master):
    """QPs the master still has placed on links it knows are dead."""
    return {qp for link in master.registry.dead_links for qp in master.qps_on_link(link)}


def test_reverse_index_tracks_allocations():
    _topo, master = build(search_ports=False)
    req = request()
    allocs = master.allocate(req)
    for alloc in allocs:
        rail = master.topology.rail_of(req.src_nic)
        for link in master.registry.links_of(rail, alloc.choice):
            assert alloc.qp_num in master.qps_on_link(link)
    master.release(req, allocs)
    for alloc in allocs:
        rail = master.topology.rail_of(req.src_nic)
        for link in master.registry.links_of(rail, alloc.choice):
            assert master.qps_on_link(link) == ()


def test_reallocate_rolls_back_on_exhaustion():
    spec = TESTBED_16_NODES
    _topo, master = build(search_ports=False)
    req = request(qps=1)
    alloc = master.allocate(req)[0]
    # Kill every uplink of the QP's plane: no healthy route remains.
    for spine in range(spec.spines_per_rail):
        for k in range(spec.uplink_ports_per_spine):
            master.registry.mark_dead(master.topology.leaf_up(0, 0, spine, k))
    loads_before = dict(master.registry.link_load)
    choice_before = alloc.choice
    with pytest.raises(PathPoolExhausted):
        master.reallocate(req, alloc)
    # Crash-safe: books and allocation read exactly as before the attempt.
    assert master.registry.link_load == loads_before
    assert alloc.choice == choice_before
    assert len(master._allocated) == 1
    rail = master.topology.rail_of(req.src_nic)
    for link in master.registry.links_of(rail, alloc.choice):
        assert alloc.qp_num in master.qps_on_link(link)
    assert {k: v for k, v in master.registry.link_load.items() if v} == books_of(master)


def test_allocate_rolls_back_earlier_qps_on_exhaustion():
    spec = TESTBED_16_NODES
    _topo, master = build(search_ports=False)
    # Side 1 of rail 0 has no uplink left: QP 0 (side 0) gets a route,
    # QP 1 (side 1) finds none.
    for spine in range(spec.spines_per_rail):
        for k in range(spec.uplink_ports_per_spine):
            master.registry.mark_dead(master.topology.leaf_up(0, 1, spine, k))
    with pytest.raises(PathPoolExhausted):
        master.allocate(request(qps=2))
    assert len(master._allocated) == 0
    assert sum(master.registry.link_load.values()) == 0
    assert master._link_qps == {}


def test_drain_migrates_every_qp_and_resets_weights():
    _topo, master = build(search_ports=False)
    requests = []
    for i in range(48):
        req = request(src=i % 16, dst=(i + 1) % 16, comm=f"c{i}")
        requests.append((req, master.allocate(req)))
    # Pick a loaded uplink and skew some weights so the reset is visible.
    victim_alloc = requests[0][1][0]
    rail = 0
    link = master.registry.links_of(rail, victim_alloc.choice)[0]
    victims = master.qps_on_link(link)
    assert victims
    victim_alloc.weight = 3.0
    migrated_seen = []
    master.migration_listener = lambda req, alloc: migrated_seen.append(alloc.qp_num)
    master.topology.network.fail_link(link)
    report = master.notify_link_failure(link)
    assert report.stranded == ()
    assert {a.qp_num for a in report.migrated} == set(victims)
    assert master.qps_on_link(link) == ()
    assert residual_qps_on_dead_links(master) == set()
    assert all(a.weight == 1.0 for a in report.migrated)
    assert sorted(migrated_seen) == sorted(victims)
    assert {k: v for k, v in master.registry.link_load.items() if v} == books_of(master)


def test_notify_without_drain_leaves_qps_in_place():
    _topo, master = build(search_ports=False)
    req = request(qps=1)
    alloc = master.allocate(req)[0]
    link = master.registry.links_of(0, alloc.choice)[0]
    report = master.notify_link_failure(link, drain=False)
    assert report.migrated == () and report.stranded == ()
    assert alloc.qp_num in master.qps_on_link(link)
    assert link in master.registry.dead_links


def test_maintenance_detects_silent_failure_and_drains():
    topo, master = build(search_ports=False)
    req = request(qps=1)
    alloc = master.allocate(req)[0]
    link = master.registry.links_of(0, alloc.choice)[0]
    topo.network.fail_link(link)  # no notification reaches the master
    report = master.maintenance(now=10.0)
    assert link in report.newly_dead
    assert report.migrated_qps == 1
    assert master.qps_on_link(link) == ()
    for link_id in alloc.path:
        assert topo.network.link(link_id).is_up


def test_maintenance_readmits_link_after_probation():
    _topo, master = build(search_ports=False)
    link = master.topology.leaf_up(0, 0, 2, 1)
    # False accusation: the link is physically fine.
    master.notify_link_failure(link, now=0.0)
    assert link in master.registry.dead_links
    # Probes during the 30 s hold-down are ignored.
    master.maintenance(now=10.0)
    assert link in master.registry.dead_links
    # After the hold-down, three consecutive good probes readmit it.
    master.maintenance(now=35.0)
    master.maintenance(now=36.0)
    report = master.maintenance(now=37.0)
    assert link in report.recovered
    assert link not in master.registry.dead_links
    assert master.health.state_of(link) is LinkHealthState.HEALTHY


@pytest.mark.parametrize(
    "unservable",
    [
        {"dst_nic": 1},  # nic0 and nic1 sit on different rails
        {"src_nic": 8, "dst_nic": 8},  # a node has nics 0-7
        {"dst_node": 16},  # the testbed has nodes 0-15
    ],
)
def test_unservable_request_raises_before_acquiring_load(unservable):
    _topo, master = build()
    master.allocate(request(qps=2))
    load = dict(master.registry.link_load)
    fields = dict(
        comm_id="c1", job_id="j", src_node=0, src_nic=0, dst_node=1, dst_nic=0, num_qps=2
    )
    with pytest.raises((ValueError, IndexError)):
        master.allocate(PathRequest(**{**fields, **unservable}))
    assert master.registry.link_load == load
    assert books_of(master) == {k: v for k, v in load.items() if v}
