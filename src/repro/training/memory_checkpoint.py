"""In-memory checkpoint engine (the Gemini-style substrate of §II-C).

The paper attributes the collapse of post-checkpoint cost to
high-frequency checkpointing "similar to the prior work [Gemini],
capable of saving checkpoints approximately every 10 iterations".  This
module provides the engine: bounded in-memory snapshots taken every N
steps with a small save cost, and the restore point of a crash.

Snapshots carry a checksum computed at save time.  Restore validates it
and walks back through older snapshots when the newest is corrupted
(bit rot, a torn in-flight save, a bad host DIMM) — the recovery
pipeline degrades to losing more steps instead of crashing on an
unloadable checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


def _checksum(step: int, time: float) -> int:
    """Cheap deterministic digest standing in for a content hash."""
    return hash((step, round(time, 9))) & 0xFFFFFFFF


@dataclass
class Snapshot:
    """One saved model state.

    ``checksum`` is written at save time; :meth:`is_valid` recomputes it
    at restore time, so corruption injected in between is caught before
    the job tries to load the state.
    """

    step: int
    time: float
    checksum: int = 0

    def __post_init__(self) -> None:
        if self.checksum == 0:
            self.checksum = _checksum(self.step, self.time)

    @property
    def is_valid(self) -> bool:
        """True when the stored checksum matches the content."""
        return self.checksum == _checksum(self.step, self.time)

    def corrupt(self) -> None:
        """Damage the snapshot in place (chaos injection)."""
        self.checksum = ~self.checksum & 0xFFFFFFFF


class InMemoryCheckpointer:
    """Periodic snapshots into a bounded host-memory ring.

    Parameters
    ----------
    interval_steps:
        Steps between snapshots (the paper's "approximately every 10
        iterations").
    save_seconds:
        Training-time cost of one save (near zero for async host-memory
        copies; non-zero values model synchronous saves).
    capacity:
        Snapshots retained; older ones are evicted (host memory is
        finite — Gemini keeps a small ring plus a remote replica).
    """

    def __init__(
        self,
        interval_steps: int = 10,
        save_seconds: float = 0.5,
        capacity: int = 2,
    ) -> None:
        if interval_steps < 1:
            raise ValueError("interval_steps must be >= 1")
        if save_seconds < 0:
            raise ValueError("save_seconds must be non-negative")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.interval_steps = interval_steps
        self.save_seconds = save_seconds
        self.capacity = capacity
        self.snapshots: list[Snapshot] = []
        #: Fallback depth of the most recent restore (0 = newest
        #: snapshot was valid).
        self.last_restore_fallbacks = 0

    def maybe_save(self, step: int, now: float) -> float:
        """Save if ``step`` is on the cadence; returns the time cost."""
        if step < 0:
            raise ValueError("step must be non-negative")
        if (step + 1) % self.interval_steps != 0:
            return 0.0
        self.snapshots.append(Snapshot(step=step, time=now))
        if len(self.snapshots) > self.capacity:
            self.snapshots.pop(0)
        return self.save_seconds

    def corrupt_latest(self, count: int = 1) -> int:
        """Damage the newest ``count`` snapshots; returns how many."""
        corrupted = 0
        for snapshot in reversed(self.snapshots):
            if corrupted >= count:
                break
            if snapshot.is_valid:
                snapshot.corrupt()
                corrupted += 1
        return corrupted

    def restore(self, crash_time: float) -> Optional[Snapshot]:
        """Pick the restore point for a crash.

        Walks newest→oldest through snapshots completed before the
        crash, skipping any that fail integrity validation; the skip
        count lands in ``last_restore_fallbacks``.  Returns ``None``
        when no valid snapshot exists (cold restart from step 0).
        """
        candidates = [s for s in self.snapshots if s.time < crash_time]
        self.last_restore_fallbacks = 0
        for snapshot in reversed(candidates):
            if snapshot.is_valid:
                return snapshot
            self.last_restore_fallbacks += 1
        return None
