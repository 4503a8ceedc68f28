"""Checkpoint policies and post-checkpoint loss accounting.

The paper identifies post-checkpoint cost — computation between the last
valid checkpoint and a crash is lost — as the second-largest downtime
component, and the fix as high-frequency checkpointing ("approximately
every 10 iterations" / every 10 minutes), following Gemini-style
in-memory checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckpointPolicy:
    """Periodic checkpointing with a fixed save cost.

    Attributes
    ----------
    interval_seconds:
        Time between checkpoint completions.
    save_seconds:
        Time one checkpoint save steals from training (fast in-memory
        checkpoints make this near zero; slow shared-FS saves do not).
    """

    interval_seconds: float
    save_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.save_seconds < 0:
            raise ValueError("save_seconds must be non-negative")
        if self.save_seconds >= self.interval_seconds:
            raise ValueError("save cost must be smaller than the interval")

    def lost_work(self, time_since_last_checkpoint: float) -> float:
        """Computation lost if a crash happens this long after a save."""
        if time_since_last_checkpoint < 0:
            raise ValueError("time must be non-negative")
        return min(time_since_last_checkpoint, self.interval_seconds)

    def overhead_fraction(self) -> float:
        """Fraction of runtime spent saving checkpoints."""
        return self.save_seconds / self.interval_seconds


#: Sparse checkpointing typical before C4 (users "scheduled infrequent
#: checkpoints"): every ~4.7 hours, matching Table III's June post-
#: checkpoint share.
SPARSE_CHECKPOINTS = CheckpointPolicy(interval_seconds=4.7 * 3600, save_seconds=60.0)

#: High-frequency checkpointing deployed with C4D (every 10 minutes).
FREQUENT_CHECKPOINTS = CheckpointPolicy(interval_seconds=600.0, save_seconds=2.0)
