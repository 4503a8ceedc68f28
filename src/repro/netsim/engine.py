"""Discrete-event primitives: a timer queue with stable ordering.

The network simulator advances time from one event to the next.  Events
are either *flow completions* (computed from current max-min rates) or
*timers* scheduled through this queue (link failures, congestion-control
ticks, application callbacks such as "start the next iteration").

Timers fire in (time, sequence) order so that two timers scheduled for
the same instant fire in scheduling order, which keeps runs reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True)
class _Entry:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(compare=False, default=False)


class TimerHandle:
    """Handle returned by :meth:`EventQueue.schedule`; supports cancellation."""

    def __init__(self, entry: _Entry, queue: "EventQueue") -> None:
        self._entry = entry
        self._queue = queue

    @property
    def time(self) -> float:
        """Absolute simulated time at which the timer fires."""
        return self._entry.time

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the timer fired."""
        return self._entry.cancelled

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""
        if not self._entry.cancelled:
            self._queue._note_cancel(self._entry)


class EventQueue:
    """Min-heap of timers with deterministic same-time ordering.

    Cancellation is lazy — a cancelled entry stays in the heap, flagged,
    until popped — but the queue tracks how many dead entries it holds
    and compacts the heap once they are the majority, so workloads with
    heavy timer churn (long chaos campaigns cancelling thousands of
    hold-down/backoff timers) keep the heap proportional to the *live*
    timer count instead of growing unboundedly.
    """

    #: Heaps smaller than this are never compacted: rebuilds would cost
    #: more than the few dead entries they could reclaim.
    _COMPACT_MIN_HEAP = 64

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._seq = itertools.count()
        self._cancelled_pending = 0
        #: Timers ever scheduled / fired (cheap counters the network's
        #: observability gauges read; cancellations count as neither).
        self.timers_scheduled = 0
        self.timers_fired = 0
        #: Times the lazy sweep rebuilt the heap (observability/tests).
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled_pending

    def depth(self) -> int:
        """Heap size including cancelled-but-unpopped entries (O(1)).

        Unlike ``len()`` this is safe to sample from a metrics gauge on
        every scrape: it measures the real memory/latency footprint of
        the heap without walking it.
        """
        return len(self._heap)

    def schedule(self, time: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to fire at absolute simulated ``time``."""
        if time < 0:
            raise ValueError(f"cannot schedule a timer at negative time {time}")
        entry = _Entry(time=time, seq=next(self._seq), callback=callback)
        heapq.heappush(self._heap, entry)
        self.timers_scheduled += 1
        return TimerHandle(entry, self)

    def next_time(self) -> float | None:
        """Time of the earliest pending timer, or None if the queue is empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0].time

    def pop_due(self, now: float) -> list[Callable[[], None]]:
        """Remove and return callbacks of all timers due at or before ``now``.

        Callbacks are returned in firing order; the caller invokes them.
        """
        due: list[Callable[[], None]] = []
        while self._heap and self._heap[0].time <= now:
            entry = heapq.heappop(self._heap)
            if entry.cancelled:
                self._cancelled_pending -= 1
            else:
                due.append(entry.callback)
        self.timers_fired += len(due)
        return due

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._cancelled_pending -= 1

    def _note_cancel(self, entry: _Entry) -> None:
        """Flag ``entry`` dead and compact the heap when the dead dominate.

        Rebuilding preserves ordering exactly: live entries keep their
        ``(time, seq)`` keys, so heapify reproduces the same firing order
        the lazy path would have produced.
        """
        entry.cancelled = True
        self._cancelled_pending += 1
        if (
            len(self._heap) >= self._COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._heap = [e for e in self._heap if not e.cancelled]
            heapq.heapify(self._heap)
            self._cancelled_pending = 0
            self.compactions += 1
