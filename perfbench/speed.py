"""A clock that runs at a fixed reference speed on a host whose speed drifts.

The benchmark shares a few cores of a host with other tenants; the speed
at which one core runs Python code swings by up to ~1.7x within seconds
as neighbours come and go.  Wall times taken minutes apart are then not
comparable, whatever the repetition count.

``SpeedClock`` samples the host's speed while a repetition runs: a
``SIGALRM`` interval timer interrupts the workload every ``PERIOD``
seconds, and the handler times one run of ``kernel``, a fixed
pure-Python loop of heap, dict and float work of the kind the simulator
does.  ``seconds(a, b)`` turns the wall interval ``[a, b]`` (read from
``time.perf_counter``) into *reference seconds*: each stretch of the
workload between two samples counts ``NOMINAL / d`` times its wall
length, ``d`` being the kernel time measured around it, and the
sampler's own time is left out.  On a host where ``kernel`` takes
``NOMINAL`` seconds, reference seconds are wall seconds; a program
change that halves the work halves them on any host speed.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

#: Sampling period, in wall seconds.
PERIOD = 0.02
#: Kernel time that defines the reference speed, in seconds.
NOMINAL = 1e-3
#: Kernel iterations (about ``NOMINAL`` seconds on an uncontended core).
KERNEL_STEPS = 1200


def kernel() -> float:
    """The reference work: a tiny timer-heap event loop over dict state."""
    heap = [(float(i % 97), i) for i in range(64)]
    heapq.heapify(heap)
    state: dict[int, float] = {}
    total = 0.0
    for step in range(KERNEL_STEPS):
        now, key = heapq.heappop(heap)
        slot = key & 255
        rate = 0.5 * state.get(slot, 1.0) + 0.5 / (1.0 + now % 7.0)
        state[slot] = rate
        total += rate
        heapq.heappush(heap, (now + 1.0 + (step % 13) * 0.1, (key * 31 + step) & 1023))
    return total


class SpeedClock:
    """Samples the host's speed; converts wall intervals to reference seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._local: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        kernel()
        self.starts.append(started)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # A sample's speed is the median of it and its two neighbours, so
        # one kernel run that was itself descheduled does not count.
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        padded = durations[:1] + durations + durations[-1:]
        self._local = [statistics.median(padded[i:i + 3]) for i in range(len(durations))]

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds the workload spent in the wall interval ``[a, b]``."""
        starts, ends, local = self.starts, self.ends, self._local
        if not local:
            raise RuntimeError("SpeedClock took no samples")
        last = len(local) - 1
        i = bisect.bisect_right(ends, a)
        total = 0.0
        t = a
        while t < b:
            if i <= last and starts[i] <= t:
                t = ends[i]
                i += 1
                continue
            stop = min(b, starts[i]) if i <= last else b
            d = 0.5 * (local[max(i - 1, 0)] + local[min(i, last)])
            total += (stop - t) * NOMINAL / d
            t = stop
        return total

    def samples(self) -> int:
        """How many speed samples were taken."""
        return len(self.starts)
