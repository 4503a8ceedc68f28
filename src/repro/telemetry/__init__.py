"""Telemetry plane: the C4 agent plane and the central collector.

The paper's architecture (Fig. 5) inserts a per-node **C4a (C4 agent)**
between the enhanced ACCL and the central C4D master: agents gather the
library's monitoring records from local workers and forward them to the
master, which holds the cluster-wide view the detectors analyze.  One
:class:`AgentPlane` plays every node's agent.
"""

from repro.telemetry.agent import AgentPlane
from repro.telemetry.collector import CentralCollector, CommProgress

__all__ = ["AgentPlane", "CentralCollector", "CommProgress"]
