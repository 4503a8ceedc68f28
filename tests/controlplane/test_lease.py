"""Tests for agent heartbeat leases and the derived coverage view."""

import pytest

from repro.controlplane import LeaseTable
from repro.obs.metrics import MetricsRegistry


def table(lease_seconds=30.0):
    return LeaseTable(lease_seconds=lease_seconds, metrics=MetricsRegistry())


def test_register_and_expiry():
    t = table()
    t.register(0, 0.0)
    t.register(1, 0.0)
    assert t.blind_nodes(10.0) == []
    assert t.coverage(10.0) == 1.0
    # Expiry is inclusive at now >= expiry.
    assert t.blind_nodes(30.0) == [0, 1]
    assert t.coverage(30.0) == 0.0


def test_heartbeat_renews_and_auto_registers():
    t = table()
    t.register(0, 0.0)
    t.heartbeat(0, 20.0)
    assert t.blind_nodes(40.0) == []
    # A heartbeat from an unknown node is a registration — the recovery
    # path after a master restart needs no explicit handshake.
    t.heartbeat(7, 40.0)
    assert t.blind_nodes(60.0) == [0]
    assert t.coverage(60.0) == 0.5
    assert t.blind_nodes(70.0) == [0, 7]


def test_coverage_fraction():
    t = table()
    assert t.coverage(0.0) == 1.0  # vacuously covered with no agents
    for node in range(4):
        t.register(node, 0.0)
    t.heartbeat(0, 25.0)
    assert t.coverage(40.0) == pytest.approx(0.25)
    assert t.blind_nodes(40.0) == [1, 2, 3]


def test_rejects_nonpositive_lease():
    with pytest.raises(ValueError):
        LeaseTable(lease_seconds=0.0, metrics=MetricsRegistry())
