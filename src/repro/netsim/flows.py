"""Flows: finite transfers sharing link bandwidth.

A flow stands in for one RDMA QP's traffic during one collective step
(or, for long-running measurements, a back-to-back sequence of them).
Flows carry a ``weight`` so the dynamic load balancer of C4P can shift
load between paths without tearing connections down, and an optional
``rate_cap`` used by the DCQCN-style congestion model to throttle
senders.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


class FlowState(enum.Enum):
    """Lifecycle of a flow inside the simulator."""

    ACTIVE = "active"
    COMPLETED = "completed"
    STALLED = "stalled"  # path crosses a failed link and was not rerouted


@dataclass
class Flow:
    """A finite data transfer over a fixed path.

    Parameters
    ----------
    flow_id:
        Unique hashable identifier.
    path:
        Sequence of link ids the flow traverses, in order.  Change it by
        replacing it (``flow.path = [...]`` or :meth:`reroute`), never
        by mutating the list in place: the network notices a new path
        object, not an edited one.
    size:
        Total bits to transfer.  Must be positive.
    weight:
        Max-min fairness weight (default 1.0).  A flow with weight 2
        receives twice the share of a weight-1 flow on a shared
        bottleneck.
    rate_cap:
        Optional sender-side rate limit in bits/s (congestion control).
    on_complete:
        Callback invoked by the network when the flow finishes; receives
        the flow.  May start new flows.
    metadata:
        Free-form dict for upper layers (source port, QP number, job id,
        …).  The simulator never reads it.
    """

    flow_id: object
    path: Sequence[object]
    size: float
    weight: float = 1.0
    rate_cap: Optional[float] = None
    on_complete: Optional[Callable[["Flow"], None]] = None
    metadata: dict = field(default_factory=dict)

    state: FlowState = field(default=FlowState.ACTIVE, init=False)
    remaining: float = field(init=False)
    rate: float = field(default=0.0, init=False)
    start_time: float = field(default=math.nan, init=False)
    end_time: float = field(default=math.nan, init=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"flow {self.flow_id!r} needs positive size, got {self.size}")
        if self.weight <= 0:
            raise ValueError(f"flow {self.flow_id!r} needs positive weight, got {self.weight}")
        if not self.path:
            raise ValueError(f"flow {self.flow_id!r} needs a non-empty path")
        if self.rate_cap is not None and self.rate_cap <= 0:
            raise ValueError(f"flow {self.flow_id!r} rate_cap must be positive")
        self.remaining = float(self.size)

    @property
    def duration(self) -> float:
        """Wall-clock (simulated) duration; NaN until completed."""
        return self.end_time - self.start_time

    @property
    def mean_rate(self) -> float:
        """Average achieved rate in bits/s; NaN until completed."""
        return self.size / self.duration

    def reroute(self, new_path: Sequence[object]) -> None:
        """Replace the flow's path (e.g. after a link failure).

        The remaining bits are preserved; the network recomputes rates at
        the next event boundary.
        """
        if not new_path:
            raise ValueError("new_path must be non-empty")
        self.path = list(new_path)
        if self.state == FlowState.STALLED:
            self.state = FlowState.ACTIVE
