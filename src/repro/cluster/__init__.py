"""Cluster model: nodes, dual-port NICs, Clos fabric, faults.

Stands in for the paper's physical deployment: H800 nodes with eight
BlueField-3 dual-port NICs, a dual-ToR (leaf-pair) Clos/Fat-Tree fabric
with configurable oversubscription, plus the fault taxonomy of Tables I
and III and a stochastic fault injector used by the month-scale
experiments.
"""

from repro.cluster.faults import (
    PAPER_CRASH_MIX,
    FaultClass,
    FaultEvent,
    FaultInjector,
    FaultRates,
    FaultType,
)
from repro.cluster.hardware import ComponentHealth, Gpu, Nic, Node
from repro.cluster.specs import TESTBED_16_NODES, ClusterSpec, pod_spec
from repro.cluster.topology import ClusterTopology

__all__ = [
    "ClusterSpec",
    "TESTBED_16_NODES",
    "pod_spec",
    "Gpu",
    "Nic",
    "Node",
    "ComponentHealth",
    "ClusterTopology",
    "FaultType",
    "FaultClass",
    "FaultEvent",
    "FaultRates",
    "FaultInjector",
    "PAPER_CRASH_MIX",
]
