"""Link health state machine with flap damping for the C4P master.

The paper's C4P evaluation is dominated by *runtime* fabric faults:
Fig. 12 reroutes flows off a leaf-spine link that dies mid-job, and
Fig. 13 shows tolerance to a link that *flaps* — fails, recovers, and
fails again.  A master that re-admits a link the moment a probe succeeds
would chase the flap: every recovery would pull QPs back onto the link
just in time for the next failure.

The tracker below gives each fabric link a three-state lifecycle::

    HEALTHY ──failure──▶ QUARANTINED ──hold-down expires,──▶ PROBATION
       ▲                     ▲          probe succeeds           │
       │                     │                                   │
       │                     └───────────any probe fails─────────┤
       └────────── N consecutive successful probes ──────────────┘

* a failure quarantines the link under an **exponential hold-down**:
  the k-th failure inside ``flap_window`` holds the link out for
  ``hold_down_base * 2**(k-1)`` seconds (capped at ``hold_down_max``),
  so a flapping link stays quarantined longer each time it misbehaves;
* probe results during the hold-down are ignored entirely — a flap's
  "up" half must not count toward recovery;
* once the hold-down expires, the link enters **probation** and must
  pass ``probation_probes`` consecutive incremental probes before the
  master re-admits it; a single failed probe re-quarantines it with an
  escalated hold-down.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.codec import canonical_pairs
from repro.obs.metrics import MetricsRegistry, get_registry


class LinkHealthState(enum.Enum):
    """Where a link stands in the recovery lifecycle."""

    HEALTHY = "healthy"
    QUARANTINED = "quarantined"
    PROBATION = "probation"


@dataclass(frozen=True)
class LinkHealthConfig:
    """Flap-damping tunables.

    Attributes
    ----------
    hold_down_base:
        Quarantine seconds after the first failure in a window.
    hold_down_max:
        Cap on the exponential hold-down.
    flap_window:
        Seconds over which failures count toward hold-down escalation;
        older failures age out.
    probation_probes:
        Consecutive successful probes (after the hold-down) required
        before a link returns to service.
    """

    hold_down_base: float = 30.0
    hold_down_max: float = 480.0
    flap_window: float = 900.0
    probation_probes: int = 3

    def __post_init__(self) -> None:
        if self.hold_down_base <= 0 or self.hold_down_max < self.hold_down_base:
            raise ValueError("need 0 < hold_down_base <= hold_down_max")
        if self.flap_window <= 0:
            raise ValueError("flap_window must be positive")
        if self.probation_probes < 1:
            raise ValueError("probation_probes must be >= 1")


class LinkHealthTracker:
    """Per-link failure history, hold-down timers and probation streaks."""

    def __init__(
        self,
        config: LinkHealthConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or LinkHealthConfig()
        self._state: dict[tuple, LinkHealthState] = {}
        #: Failure timestamps inside the flap window, per link.
        self._failures: dict[tuple, list[float]] = {}
        self._quarantined_until: dict[tuple, float] = {}
        self._streak: dict[tuple, int] = {}
        registry = get_registry(metrics)
        transitions = registry.counter(
            "c4p_link_health_transitions_total",
            "Link health state machine entries per state",
            labels=("state",),
        )
        self._m_transitions = {
            state: transitions.labels(state=state.value) for state in LinkHealthState
        }
        self._m_holddown = registry.histogram(
            "c4p_holddown_seconds", "Hold-down applied per quarantine"
        )

    def _enter(self, link_id: tuple, state: LinkHealthState) -> None:
        """Record a state entry (transitions only, not self-loops)."""
        if self._state.get(link_id, LinkHealthState.HEALTHY) is not state:
            self._m_transitions[state].inc()
        self._state[link_id] = state

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state_of(self, link_id: tuple) -> LinkHealthState:
        """Current lifecycle state (HEALTHY when never seen)."""
        return self._state.get(link_id, LinkHealthState.HEALTHY)

    def quarantined_until(self, link_id: tuple) -> float:
        """End of the current hold-down (``-inf`` when not quarantined)."""
        return self._quarantined_until.get(link_id, float("-inf"))

    def failures_in_window(self, link_id: tuple, now: float) -> int:
        """Failures recorded within the trailing flap window."""
        cutoff = now - self.config.flap_window
        return sum(1 for t in self._failures.get(link_id, ()) if t > cutoff)

    def tracked_links(self) -> list[tuple]:
        """Links currently quarantined or on probation."""
        return [
            link
            for link, state in self._state.items()
            if state is not LinkHealthState.HEALTHY
        ]

    # ------------------------------------------------------------------
    # Snapshot / restore (control-plane journaling)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Detached snapshot: each tuple-keyed map becomes sorted pairs."""
        failures = {link: tuple(times) for link, times in self._failures.items()}
        return {
            "state": canonical_pairs(self._state),
            "failures": canonical_pairs(failures),
            "quarantined_until": canonical_pairs(self._quarantined_until),
            "streak": canonical_pairs(self._streak),
        }

    def restore_state(self, state: dict) -> None:
        """Replace the state machine with a :meth:`snapshot_state` dict."""
        self._state = dict(state["state"])
        self._failures = {link: list(times) for link, times in state["failures"]}
        self._quarantined_until = dict(state["quarantined_until"])
        self._streak = dict(state["streak"])

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def record_failure(self, link_id: tuple, now: float) -> float:
        """Quarantine a link; returns the hold-down applied (seconds).

        Repeated failures inside the flap window escalate the hold-down
        exponentially — the damping that keeps a flapping link out of
        service instead of letting it oscillate back in.
        """
        cutoff = now - self.config.flap_window
        history = [t for t in self._failures.get(link_id, []) if t > cutoff]
        history.append(now)
        self._failures[link_id] = history
        hold = min(
            self.config.hold_down_base * 2 ** (len(history) - 1),
            self.config.hold_down_max,
        )
        self._enter(link_id, LinkHealthState.QUARANTINED)
        self._quarantined_until[link_id] = now + hold
        self._streak[link_id] = 0
        self._m_holddown.observe(hold)
        return hold

    def record_probe(self, link_id: tuple, now: float, healthy: bool) -> LinkHealthState:
        """Fold one incremental probe result into the state machine."""
        state = self.state_of(link_id)
        if (
            state is LinkHealthState.QUARANTINED
            and now < self._quarantined_until.get(link_id, float("-inf"))
        ):
            # Hold-down: probe results are ignored in both directions, so
            # a flap's transient "up" half cannot start a recovery and a
            # steadily dead link does not escalate once per probe.
            return state
        if not healthy:
            self.record_failure(link_id, now)
            return LinkHealthState.QUARANTINED
        if state is LinkHealthState.QUARANTINED:
            self._enter(link_id, LinkHealthState.PROBATION)
            self._streak[link_id] = 1
        elif state is LinkHealthState.PROBATION:
            self._streak[link_id] = self._streak.get(link_id, 0) + 1
        else:
            return LinkHealthState.HEALTHY
        if self._streak[link_id] >= self.config.probation_probes:
            self._enter(link_id, LinkHealthState.HEALTHY)
            self._quarantined_until.pop(link_id, None)
            self._streak.pop(link_id, None)
            # Failure history is retained: a relapse inside the flap
            # window resumes the escalated hold-down schedule.
            return LinkHealthState.HEALTHY
        return self._state[link_id]
