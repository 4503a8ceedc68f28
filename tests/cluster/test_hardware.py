"""Tests for hardware inventory objects."""

from repro.cluster.hardware import ComponentHealth, Nic, Node


def test_node_build_counts():
    node = Node.build(3, gpus_per_node=8, nics_per_node=8)
    assert len(node.gpus) == 8
    assert len(node.nics) == 8
    assert node.name == "node3"


def test_nic_ip_is_deterministic_and_unique():
    ips = set()
    for node_id in range(4):
        for nic_index in range(8):
            ips.add(Nic(node_id=node_id, index=nic_index).ip_address)
    assert len(ips) == 32


def test_worst_gpu_scale():
    node = Node.build(0, 8, 8)
    node.gpus[4].compute_scale = 0.5
    assert node.worst_gpu_scale() == 0.5


def test_isolate_and_schedulable():
    node = Node.build(0, 8, 8)
    assert node.is_schedulable
    node.isolate()
    assert node.health is ComponentHealth.ISOLATED
    assert not node.is_schedulable
