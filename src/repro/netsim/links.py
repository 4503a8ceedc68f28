"""Directed network links with capacity, state and traffic counters.

A link is the unit of bandwidth contention.  Every hop a flow traverses
(NIC port to leaf, leaf to spine, spine to leaf, leaf to NIC port, or an
intra-node NVLink stage) is one :class:`Link`.  Links accumulate byte
counters so experiments such as Fig. 13 of the paper (per-switch-port
bandwidth) can be read directly off the simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class LinkState(enum.Enum):
    """Operational state of a link."""

    UP = "up"
    DOWN = "down"


@dataclass
class Link:
    """A directed, fixed-capacity link.

    Parameters
    ----------
    link_id:
        Unique hashable identifier, e.g. ``("up", "leaf0", "spine3")``.
    capacity:
        Capacity in bits/s.  Must be positive.  Once the link belongs to
        a network, change it through
        :meth:`~repro.netsim.network.FlowNetwork.set_link_capacity`,
        which keeps the solver's capacity map in step.
    description:
        Optional human-readable label used in reports.
    """

    link_id: object
    capacity: float
    description: str = ""
    state: LinkState = LinkState.UP
    bits_carried: float = field(default=0.0, init=False)
    #: Windowed counter, reset by :meth:`reset_window`.  Used to compute
    #: per-port bandwidth over a sampling interval (Fig. 13).
    window_bits: float = field(default=0.0, init=False)
    #: Called with the link after every up/down transition.  The owning
    #: :class:`~repro.netsim.network.FlowNetwork` uses it to count the
    #: links that are down.  Left unannotated so it is not a dataclass
    #: field: ``asdict()`` and comparisons leave it out.
    on_state_change = None  # Optional[Callable[[Link], None]]

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.link_id!r} needs positive capacity, got {self.capacity}")

    @property
    def is_up(self) -> bool:
        """True when the link is operational."""
        return self.state == LinkState.UP

    def fail(self) -> None:
        """Take the link down; flows crossing it must be rerouted or stall."""
        self._set_state(LinkState.DOWN)

    def restore(self) -> None:
        """Bring the link back up."""
        self._set_state(LinkState.UP)

    def _set_state(self, state: LinkState) -> None:
        if self.state is state:
            return
        self.state = state
        if self.on_state_change is not None:
            self.on_state_change(self)

    def account(self, bits: float) -> None:
        """Accumulate ``bits`` of carried traffic into both counters."""
        self.bits_carried += bits
        self.window_bits += bits

    def reset_window(self) -> None:
        """Zero the windowed counter (start of a new sampling interval)."""
        self.window_bits = 0.0

    def window_rate(self, window_seconds: float) -> float:
        """Average rate in bits/s over the current window."""
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        return self.window_bits / window_seconds
