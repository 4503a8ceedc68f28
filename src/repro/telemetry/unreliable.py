"""Lossy telemetry transport between the C4 agents and the master.

Production monitoring pipelines ride the same network the workload
stresses, so records arrive late, duplicated, or — when the channel is
saturated — not at all until a retransmit succeeds.  The happy-path
simulation delivers records synchronously; this module models the messy
path so the detectors' robustness is measured under partial
observability (the adversarial condition CCL-D and Mycroft style
evaluations focus on).

The channel is *at-least-once with bounded retries*: a dropped send is
retried after ``RETRANSMIT_TIMEOUT`` up to ``MAX_RETRIES`` times, so a
drop usually manifests as extra latency, occasionally as a permanent
hole.  Duplicates model spurious retransmits.  All randomness flows
through one seeded generator, keeping campaigns reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Fixed agent→master shipping delay, in simulated seconds.
BASE_LATENCY = 0.5
#: Mean of an exponential latency jitter added per attempt.
JITTER = 0.5
#: Wait before retrying a lost attempt.
RETRANSMIT_TIMEOUT = 5.0
#: Retries after the first attempt.
MAX_RETRIES = 8


@dataclass(frozen=True)
class ChannelConfig:
    """Unreliability rates of one scenario's agent→master record path.

    Attributes
    ----------
    drop_rate:
        Probability one delivery *attempt* is lost.  With retries, the
        chance a record is lost forever is ``drop_rate ** (MAX_RETRIES
        + 1)``.
    duplicate_rate:
        Probability a successful delivery is followed by a duplicate.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")


class UnreliableChannel:
    """Schedules lossy, delayed, duplicated record deliveries.

    Parameters
    ----------
    network:
        Event loop supplying ``schedule(delay, callback)`` and ``now``
        (a :class:`~repro.netsim.network.FlowNetwork`).
    config:
        Unreliability parameters.
    seed:
        Seed for the channel's private RNG.
    """

    def __init__(self, network, config: ChannelConfig, seed: int = 0) -> None:
        self.network = network
        self.config = config
        self._rng = np.random.default_rng(seed)
        # Observability counters (surface in scorecards).
        self.sent = 0
        self.delivered = 0
        self.dropped_attempts = 0
        self.duplicated = 0
        self.abandoned = 0

    def send(self, deliver) -> None:
        """Ship one record; ``deliver()`` runs when (if) it arrives."""
        self.sent += 1
        self._attempt(deliver, attempt=0)

    def _attempt(self, deliver, attempt: int) -> None:
        cfg = self.config
        if self._rng.random() < cfg.drop_rate:
            self.dropped_attempts += 1
            if attempt >= MAX_RETRIES:
                self.abandoned += 1
                return
            # Retransmits are jittered like deliveries: a bare round-number
            # timeout would make every record dropped in the same step
            # retry at the same instant, and same-instant retries consume
            # the shared channel RNG in timer-tie-break order — a real
            # ordering race (caught by `repro lint --racecheck`).  Real
            # retransmit timers wobble anyway.
            retry_delay = RETRANSMIT_TIMEOUT + float(self._rng.exponential(JITTER))
            self.network.schedule(
                retry_delay,
                lambda: self._attempt(deliver, attempt + 1),
            )
            return
        delay = BASE_LATENCY + float(self._rng.exponential(JITTER))

        def arrival() -> None:
            self.delivered += 1
            deliver()

        self.network.schedule(delay, arrival)
        if self._rng.random() < cfg.duplicate_rate:
            self.duplicated += 1
            self.network.schedule(delay + BASE_LATENCY, deliver)

    def stats(self) -> dict:
        """Counter snapshot for reports and scorecards."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped_attempts": self.dropped_attempts,
            "duplicated": self.duplicated,
            "abandoned": self.abandoned,
        }
