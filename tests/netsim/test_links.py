"""Tests for links and their counters."""

import pytest

from repro.netsim.links import Link, LinkState
from repro.netsim.units import GBPS


def test_link_starts_up():
    link = Link(link_id="a", capacity=GBPS)
    assert link.is_up
    assert link.state is LinkState.UP


def test_fail_and_restore():
    link = Link(link_id="a", capacity=GBPS)
    link.fail()
    assert not link.is_up
    link.restore()
    assert link.is_up


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        Link(link_id="a", capacity=0.0)


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        Link(link_id="a", capacity=-5.0)


def test_account_accumulates_the_counter():
    link = Link(link_id="a", capacity=GBPS)
    link.account(100.0)
    link.account(50.0)
    assert link.window_bits == 150.0


def test_reset_window_restarts_the_counter():
    link = Link(link_id="a", capacity=GBPS)
    link.account(100.0)
    link.reset_window()
    link.account(25.0)
    assert link.window_bits == 25.0


def test_window_rate():
    link = Link(link_id="a", capacity=GBPS)
    link.account(1000.0)
    assert link.window_rate(2.0) == 500.0


def test_window_rate_rejects_nonpositive_window():
    link = Link(link_id="a", capacity=GBPS)
    with pytest.raises(ValueError):
        link.window_rate(0.0)
