"""Deterministic ECMP hashing.

Switches in the modelled fabric pick among equal-cost next hops by
hashing the flow's five-tuple.  Production switches use proprietary hash
functions; what matters for reproduction is that the choice is

* deterministic for a given five-tuple (flows do not flap),
* effectively uniform across tuples (so collisions follow the
  birthday-paradox statistics the paper's Fig. 3 exhibits), and
* sensitive to the UDP source port (so C4P can steer a flow onto a
  chosen path purely by picking the source port, exactly as the real
  system does for RoCEv2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class FiveTuple:
    """The fields an ECMP hash consumes for a RoCEv2 (UDP) flow."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int = 17  # UDP, as used by RoCEv2


class EcmpHasher:
    """Hash five-tuples onto next-hop indices.

    Parameters
    ----------
    seed:
        Per-fabric salt.  Different seeds model different switch hash
        configurations; sweeping seeds gives the baseline variance of
        ECMP experiments.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The fabric-wide hash salt."""
        return self._seed

    def hash_value(self, five_tuple: FiveTuple, stage: str = "") -> int:
        """Raw 64-bit hash of a five-tuple.

        ``stage`` decorrelates decisions made at different switch tiers
        for the same flow (a real fabric hashes with different seeds per
        switch; without this, the spine and leaf stages would always
        agree).
        """
        hash_port = self.port_hasher(
            five_tuple.src_ip, five_tuple.dst_ip, five_tuple.dst_port,
            five_tuple.protocol, stage,
        )
        return hash_port(five_tuple.src_port)

    def port_hasher(
        self, src_ip: str, dst_ip: str, dst_port: int, protocol: int = 17,
        stage: str = "",
    ) -> Callable[[int], int]:
        """:meth:`hash_value` as a function of the source port alone.

        The fields before the source port are hashed once; each call
        copies that state and hashes only ``port|dst_port|protocol``.
        blake2b streams, so ``port_hasher(...)(port)`` equals
        ``hash_value(FiveTuple(src_ip, dst_ip, port, dst_port, protocol),
        stage)``.  Source-port searches call it thousands of times.
        """
        prefix = hashlib.blake2b(
            f"{self._seed}|{stage}|{src_ip}|{dst_ip}|".encode(), digest_size=8
        )
        suffix = f"|{dst_port}|{protocol}"

        def hash_port(port: int) -> int:
            state = prefix.copy()
            state.update(f"{port}{suffix}".encode())
            return int.from_bytes(state.digest(), "little")

        return hash_port

    def choose(self, five_tuple: FiveTuple, num_choices: int, stage: str = "") -> int:
        """Pick an index in ``[0, num_choices)`` for this flow at this stage."""
        if num_choices <= 0:
            raise ValueError("num_choices must be positive")
        return self.hash_value(five_tuple, stage) % num_choices

