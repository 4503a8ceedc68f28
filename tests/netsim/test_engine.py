"""Tests for the timer queue."""

import pytest

from repro.netsim.engine import EventQueue


def test_empty_queue_has_no_next_time():
    queue = EventQueue()
    assert queue.next_time() is None
    assert queue.depth() == 0


def test_schedule_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.schedule(2.0, lambda: fired.append("b"))
    queue.schedule(1.0, lambda: fired.append("a"))
    queue.schedule(3.0, lambda: fired.append("c"))
    for callback in queue.pop_due(3.0):
        callback()
    assert fired == ["a", "b", "c"]


def test_same_time_fires_in_scheduling_order():
    queue = EventQueue()
    fired = []
    for name in "abcde":
        queue.schedule(1.0, lambda n=name: fired.append(n))
    for callback in queue.pop_due(1.0):
        callback()
    assert fired == list("abcde")


def test_pop_due_respects_now():
    queue = EventQueue()
    queue.schedule(1.0, lambda: None)
    queue.schedule(2.0, lambda: None)
    assert len(queue.pop_due(1.5)) == 1
    assert queue.next_time() == 2.0


def test_negative_time_rejected():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.schedule(-1.0, lambda: None)
