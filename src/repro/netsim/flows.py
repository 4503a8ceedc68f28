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
class _FlowFields:
    """The fields of :class:`Flow`, which adds the solver-input properties."""

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
        # Set every attribute a flow comes to hold now, in one order, so
        # that all flows share one key table: a flow that adds them later,
        # in the order its life takes, gets a dict of its own.
        self.start_time = self.end_time = math.nan
        self.rate = 0.0
        self.state = FlowState.ACTIVE
        self._network = None


class Flow(_FlowFields):
    """A finite data transfer over a fixed path.

    Parameters
    ----------
    flow_id:
        Unique hashable identifier.
    path:
        Sequence of link ids the flow traverses, in order.  Change it by
        replacing it (``flow.path = [...]`` or :meth:`reroute`), never
        by mutating the list in place: assigning the path is what tells
        the network, and an edited list tells it nothing.
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
        Free-form dict for upper layers (source port, QP number, …).
        The simulator never reads it.

    ``path``, ``weight`` and ``rate_cap`` are the solver's inputs.  While
    the flow is live (added to a network and not completed), assigning
    one of them, or rerouting the flow, tells the network that holds it,
    which re-solves at its next event boundary.
    """

    #: The :class:`~repro.netsim.network.FlowNetwork` holding the flow
    #: while it is live, else None.  Left unannotated so it is not a
    #: dataclass field: ``repr()`` and comparisons leave it out.
    _network = None

    @property
    def path(self) -> Sequence[object]:
        return self._path

    @path.setter
    def path(self, path: Sequence[object]) -> None:
        self._path = path
        if self._network is not None:
            self._network._flow_changed(self)

    @property
    def weight(self) -> float:
        return self._weight

    @weight.setter
    def weight(self, weight: float) -> None:
        self._weight = weight
        if self._network is not None:
            self._network._flow_changed(self)

    @property
    def rate_cap(self) -> Optional[float]:
        return self._rate_cap

    @rate_cap.setter
    def rate_cap(self, rate_cap: Optional[float]) -> None:
        self._rate_cap = rate_cap
        if self._network is not None:
            self._network._flow_changed(self)

    @property
    def duration(self) -> float:
        """Wall-clock (simulated) duration; NaN until completed."""
        return self.end_time - self.start_time

    def reroute(self, new_path: Sequence[object]) -> None:
        """Replace the flow's path (e.g. after a link failure).

        The remaining bits are preserved; a stalled flow is active again,
        and the network recomputes rates at the next event boundary.
        """
        if not new_path:
            raise ValueError("new_path must be non-empty")
        self._path = list(new_path)
        if self.state == FlowState.STALLED:
            self.state = FlowState.ACTIVE
        if self._network is not None:
            self._network._flow_changed(self)
