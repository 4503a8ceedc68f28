"""Fault taxonomy and stochastic fault injection.

The taxonomy mirrors Table I of the paper: from the user's point of view
almost everything surfaces as an opaque "NCCL Error", while the root
causes split into CUDA errors, ECC/NVLink errors, CCL timeouts, ACK
timeouts and miscellaneous network problems, ~82.5% of which are local
to one node or device (the fact C4D exploits).

Two kinds of faults are modelled:

* **crash faults** — kill the job; consumed by the month-scale lifetime
  simulations (Tables I and III);
* **degradations** — slow NIC ports; consumed by the runtime
  experiments (Figs. 7, 12, 13) and by C4D's slow-detection tests.

On top of those, the chaos harness (:mod:`repro.chaos`) draws three
adversarial families that production diagnosis systems must survive:

* **flapping faults** — transient degradations that self-heal and recur
  in on/off windows (a marginal optic, a thermally throttling GPU);
* **correlated cascades** — one shared-infrastructure failure (a ToR /
  leaf switch, a power shelf) degrading every node under it at once;
* **checkpoint corruption** — a saved snapshot silently damaged, so
  recovery must fall back to an older valid one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.cluster.specs import ClusterSpec
from repro.cluster.topology import ClusterTopology


def spine_fabric_links(spec: ClusterSpec, rail: int, spine: int) -> tuple[tuple, ...]:
    """Every fabric link id touching one spine (both sides, both tiers).

    The unit a spine maintenance (or a spine dying) takes down at once:
    all leaf→spine uplinks into it and all spine→leaf downlinks out of
    it, on both planes.
    """
    links: list[tuple] = []
    for side in (0, 1):
        for k in range(spec.uplink_ports_per_spine):
            links.append(ClusterTopology.leaf_up(rail, side, spine, k))
            links.append(ClusterTopology.spine_down(rail, spine, side, k))
    return tuple(links)


class FaultType(enum.Enum):
    """Root-cause categories (Table I)."""

    CUDA_ERROR = "cuda_error"
    ECC_NVLINK_ERROR = "ecc_nvlink_error"
    CCL_TIMEOUT = "ccl_timeout"
    ACK_TIMEOUT = "ack_timeout"
    NETWORK_OTHER = "network_other"
    # Degradations (non-crash):
    SLOW_NIC_PORT = "slow_nic_port"
    # Adversarial families (chaos harness):
    FLAPPING_HOST = "flapping_host"
    TOR_CASCADE = "tor_cascade"


class FaultClass(enum.Enum):
    """Whether the fault crashes the job or just slows it."""

    CRASH = "crash"
    DEGRADE = "degrade"


#: What the user sees for each root cause (Table I, "Users' View").
USER_VIEW = {
    FaultType.CUDA_ERROR: "NCCL Error",
    FaultType.ECC_NVLINK_ERROR: "NCCL Error",
    FaultType.CCL_TIMEOUT: "NCCL Error",
    FaultType.ACK_TIMEOUT: "NCCL Error",
    FaultType.NETWORK_OTHER: "Network Error",
}

#: Table I crash mix: root cause -> (proportion, fraction local to a
#: node/device).
PAPER_CRASH_MIX: dict[FaultType, tuple[float, float]] = {
    FaultType.CUDA_ERROR: (0.125, 1.00),
    FaultType.ECC_NVLINK_ERROR: (0.275, 1.00),
    FaultType.CCL_TIMEOUT: (0.20, 0.75),
    FaultType.ACK_TIMEOUT: (0.275, 0.818),
    FaultType.NETWORK_OTHER: (0.125, 0.40),
}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault.

    ``component`` identifies the faulty element: a node id for local
    faults, ``None`` for systemic ones.  ``device`` optionally narrows it
    to a GPU or NIC index within the node.
    """

    time: float
    fault_type: FaultType
    fault_class: FaultClass
    is_local: bool
    component: Optional[int] = None
    device: Optional[int] = None
    #: Active window of a transient fault; ``None`` means permanent
    #: (until repair).  A flapping episode is several events sharing an
    #: ``episode_id``, each with its own active window.
    duration: Optional[float] = None
    #: Groups the recurrences of one flapping fault.
    episode_id: Optional[int] = None
    #: Groups the correlated victims of one cascade (e.g. a ToR dying).
    cascade_id: Optional[int] = None

    @property
    def end_time(self) -> Optional[float]:
        """When a transient fault clears (None for permanent faults)."""
        if self.duration is None:
            return None
        return self.time + self.duration

    def active_at(self, now: float) -> bool:
        """True while the fault is degrading its component."""
        if now < self.time:
            return False
        return self.duration is None or now < self.time + self.duration


@dataclass(frozen=True)
class FaultRates:
    """Crash-fault intensity.

    The paper's representative job (Table I) logged 40 crashes in one
    month on 4,096 GPUs, i.e. ~9.8e-3 crashes per GPU-month.  Rates are
    expressed per GPU-second so they compose with any duration/scale.
    """

    crashes_per_gpu_second: float = 40.0 / (4096 * 30 * 24 * 3600)
    mix: dict[FaultType, tuple[float, float]] = field(
        default_factory=lambda: dict(PAPER_CRASH_MIX)
    )

    def scaled(self, factor: float) -> "FaultRates":
        """Rates multiplied by ``factor`` (e.g. hardened hardware)."""
        return FaultRates(
            crashes_per_gpu_second=self.crashes_per_gpu_second * factor,
            mix=dict(self.mix),
        )


class FaultInjector:
    """Samples fault timelines and applies degradations to a topology."""

    def __init__(self, rates: Optional[FaultRates] = None, seed: int = 0) -> None:
        self.rates = rates or FaultRates()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Crash-fault sampling (Tables I / III)
    # ------------------------------------------------------------------
    def sample_crashes(
        self,
        duration_seconds: float,
        num_gpus: int,
        num_nodes: int,
    ) -> list[FaultEvent]:
        """Poisson-sample crash faults over a window.

        Returns events sorted by time.  Fault types follow the Table I
        mix; locality follows each type's local fraction; local faults
        pick a uniform victim node (and device for GPU-class faults).
        """
        if duration_seconds <= 0 or num_gpus <= 0:
            raise ValueError("duration and GPU count must be positive")
        rate = self.rates.crashes_per_gpu_second * num_gpus
        count = self._rng.poisson(rate * duration_seconds)
        times = np.sort(self._rng.uniform(0.0, duration_seconds, size=count))
        types = list(self.rates.mix.keys())
        probs = np.array([self.rates.mix[t][0] for t in types])
        probs = probs / probs.sum()
        events: list[FaultEvent] = []
        for time in times:
            fault_type = types[self._rng.choice(len(types), p=probs)]
            local_fraction = self.rates.mix[fault_type][1]
            is_local = bool(self._rng.random() < local_fraction)
            component = int(self._rng.integers(num_nodes)) if is_local else None
            device: Optional[int] = None
            if is_local and fault_type in (FaultType.CUDA_ERROR, FaultType.ECC_NVLINK_ERROR):
                device = int(self._rng.integers(8))
            events.append(
                FaultEvent(
                    time=float(time),
                    fault_type=fault_type,
                    fault_class=FaultClass.CRASH,
                    is_local=is_local,
                    component=component,
                    device=device,
                )
            )
        return events

    # ------------------------------------------------------------------
    # Adversarial faults (chaos harness)
    # ------------------------------------------------------------------
    def sample_flapping(
        self,
        duration_seconds: float,
        num_nodes: int,
        episodes: int,
        mean_active_seconds: float = 120.0,
        mean_quiet_seconds: float = 60.0,
        max_recurrences: int = 4,
    ) -> list[FaultEvent]:
        """Sample flapping host degradations: active/quiet windows that recur.

        Each episode picks one victim node and alternates exponentially
        distributed active windows (the node is slow) with quiet windows
        (it looks healthy), up to ``max_recurrences`` active windows or
        the end of the horizon.  All recurrences of an episode share an
        ``episode_id``; events are returned sorted by onset time.
        """
        if duration_seconds <= 0 or num_nodes <= 0:
            raise ValueError("duration and node count must be positive")
        if episodes < 0 or max_recurrences < 1:
            raise ValueError("episodes must be >= 0 and max_recurrences >= 1")
        events: list[FaultEvent] = []
        for episode_id in range(episodes):
            node = int(self._rng.integers(num_nodes))
            onset = float(self._rng.uniform(0.0, duration_seconds * 0.5))
            for _ in range(max_recurrences):
                if onset >= duration_seconds:
                    break
                active = float(self._rng.exponential(mean_active_seconds))
                active = min(active, duration_seconds - onset)
                if active <= 0:
                    break
                events.append(
                    FaultEvent(
                        time=onset,
                        fault_type=FaultType.FLAPPING_HOST,
                        fault_class=FaultClass.DEGRADE,
                        is_local=True,
                        component=node,
                        duration=active,
                        episode_id=episode_id,
                    )
                )
                onset += active + float(self._rng.exponential(mean_quiet_seconds))
        events.sort(key=lambda e: (e.time, e.episode_id or 0))
        return events

    def sample_cascades(
        self,
        duration_seconds: float,
        num_nodes: int,
        cascades: int,
        group_size: int = 4,
        mean_active_seconds: float = 300.0,
    ) -> list[FaultEvent]:
        """Sample correlated cascades: a shared ToR degrading a node group.

        Each cascade picks a contiguous run of ``group_size`` nodes (the
        rack under one ToR) and degrades all of them over the same
        window.  Victim events share a ``cascade_id`` so scoring can
        credit one detection per cascade rather than per node.
        """
        if duration_seconds <= 0 or num_nodes <= 0:
            raise ValueError("duration and node count must be positive")
        if group_size < 1 or group_size > num_nodes:
            raise ValueError("group_size must be in [1, num_nodes]")
        events: list[FaultEvent] = []
        for cascade_id in range(cascades):
            first = int(self._rng.integers(num_nodes - group_size + 1))
            onset = float(self._rng.uniform(0.0, duration_seconds * 0.5))
            active = float(self._rng.exponential(mean_active_seconds))
            active = min(max(active, 1.0), duration_seconds - onset)
            for node in range(first, first + group_size):
                events.append(
                    FaultEvent(
                        time=onset,
                        fault_type=FaultType.TOR_CASCADE,
                        fault_class=FaultClass.DEGRADE,
                        is_local=True,
                        component=node,
                        duration=active,
                        cascade_id=cascade_id,
                    )
                )
        events.sort(key=lambda e: (e.time, e.component or 0))
        return events

    # ------------------------------------------------------------------
    # Degradations (runtime-slowdown experiments)
    # ------------------------------------------------------------------
    def degrade_nic_port(
        self, topology: ClusterTopology, node: int, nic: int, side: int, scale: float
    ) -> FaultEvent:
        """Reduce one physical NIC port to ``scale`` of line rate."""
        topology.set_port_scale(node, nic, side, scale)
        return FaultEvent(
            time=topology.network.now,
            fault_type=FaultType.SLOW_NIC_PORT,
            fault_class=FaultClass.DEGRADE,
            is_local=True,
            component=node,
            device=nic,
        )

    def pick_victims(self, candidates: Sequence[int], count: int) -> list[int]:
        """Uniformly choose ``count`` distinct victims from ``candidates``."""
        if count > len(candidates):
            raise ValueError("not enough candidates")
        picks = self._rng.choice(len(candidates), size=count, replace=False)
        return [candidates[i] for i in picks]
