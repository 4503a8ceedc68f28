"""C4P — the C4 Performance subsystem (paper §III-B).

Cluster-scale traffic engineering for collective communication:

1. **path probing** at start-up identifies faulty leaf-spine links and
   catalogues the source ports that steer traffic onto each path,
2. **balanced allocation** spreads RDMA QPs across healthy paths — same
   physical plane end-to-end (left ports never cross to right) and even
   load over all spines,
3. **dynamic load balancing** shifts QP load toward faster paths when
   links fail or congest, using the message completion times ACCL
   continuously measures.
"""

from repro.core.c4p.health import LinkHealthState, LinkHealthTracker
from repro.core.c4p.load_balance import DynamicLoadBalancer
from repro.core.c4p.master import AllocationRecord, C4PMaster, DrainReport, MaintenanceReport
from repro.core.c4p.probing import PathProber, ProbeResult
from repro.core.c4p.registry import PathPoolExhausted, PathRegistry
from repro.core.c4p.selector import C4PSelector

__all__ = [
    "PathRegistry",
    "PathPoolExhausted",
    "PathProber",
    "ProbeResult",
    "LinkHealthState",
    "LinkHealthTracker",
    "AllocationRecord",
    "C4PMaster",
    "DrainReport",
    "MaintenanceReport",
    "C4PSelector",
    "DynamicLoadBalancer",
]
