"""Flow-level network simulator.

This package is the substrate standing in for the paper's physical
RDMA-over-Converged-Ethernet fabric.  It models a network as a set of
directed :class:`~repro.netsim.links.Link` objects shared by concurrent
:class:`~repro.netsim.flows.Flow` objects, allocates instantaneous rates
with weighted max-min fairness, and advances simulated time from one
flow-completion/timer event to the next.

The fluid model reproduces exactly the phenomena C4 manipulates — ECMP
collisions, bonded-port imbalance, leaf-spine congestion and link
failures — without simulating individual packets, which keeps month-long
and 512-GPU experiments tractable.
"""

from repro.netsim.congestion import CongestionModel
from repro.netsim.engine import EventQueue
from repro.netsim.fairness import max_min_rates
from repro.netsim.flows import Flow, FlowState
from repro.netsim.links import Link, LinkState
from repro.netsim.network import FlowNetwork
from repro.netsim.routing import EcmpHasher
from repro.netsim.units import GBPS, GIB, KIB, MBPS, MIB

__all__ = [
    "EventQueue",
    "Link",
    "LinkState",
    "Flow",
    "FlowState",
    "max_min_rates",
    "FlowNetwork",
    "EcmpHasher",
    "CongestionModel",
    "GBPS",
    "MBPS",
    "KIB",
    "MIB",
    "GIB",
]
