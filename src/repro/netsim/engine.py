"""Discrete-event primitives: a timer heap with stable ordering.

The network simulator advances time from one event to the next.  Events
are either *flow completions* (computed from current max-min rates) or
*timers* scheduled through this queue (link failures, congestion-control
ticks, application callbacks such as "start the next iteration").

The heap holds plain ``(time, seq, callback)`` tuples.  ``seq`` is unique
per queue, so two timers scheduled for the same instant fire in
scheduling order and a comparison never reaches the callbacks, which
keeps runs reproducible.  Every scheduled timer fires, so scheduling
hands back nothing to hold on to.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class EventQueue:
    """Min-heap of timers with deterministic same-time ordering."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, object, Callable[[], None]]] = []
        #: Tie-breaker source; subclasses may replace it with any stream
        #: of unique, mutually comparable keys.
        self._seq = itertools.count()
        #: Timers ever scheduled / fired (cheap counters the network's
        #: observability gauges read).
        self.timers_scheduled = 0
        self.timers_fired = 0

    def depth(self) -> int:
        """Pending timers (O(1), safe to sample from a metrics gauge)."""
        return len(self._heap)

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire at absolute simulated ``time``."""
        if time < 0:
            raise ValueError(f"cannot schedule a timer at negative time {time}")
        heapq.heappush(self._heap, (time, next(self._seq), callback))
        self.timers_scheduled += 1

    def next_time(self) -> float | None:
        """Time of the earliest pending timer, or None if the queue is empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def pop_due(self, now: float) -> list[Callable[[], None]]:
        """Remove and return callbacks of all timers due at or before ``now``.

        Callbacks are returned in firing order; the caller invokes them.
        """
        heap = self._heap
        due: list[Callable[[], None]] = []
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[2])
        self.timers_fired += len(due)
        return due
