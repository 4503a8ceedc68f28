"""C4D — the C4 Diagnose subsystem (paper §III-A).

Detects the four error syndromes that dominate operational AI clusters —
communication hang, non-communication hang, communication slow and
non-communication slow — from the monitoring records of the enhanced
communication library, localizes the faulty component, and drives the
job steering service (isolate, pull in a backup node, restart from the
last checkpoint) while queueing the event for offline root-cause
analysis.
"""

from repro.core.c4d.classifier import CauseBucket, classify_fault
from repro.core.c4d.delay_matrix import (
    DelayMatrix,
    MatrixFinding,
    analyze_delay_matrix,
    build_delay_matrix,
    build_delay_matrix_reference,
)
from repro.core.c4d.detectors import (
    CommSlowDetector,
    DetectorConfig,
    HangDetector,
    NonCommSlowDetector,
)
from repro.core.c4d.events import Anomaly, AnomalyType, Suspect, SuspectKind
from repro.core.c4d.master import C4DMaster
from repro.core.c4d.rca import RcaReport, RootCauseAnalyzer
from repro.core.c4d.steering import JobSteeringService, SteeringAction, SteeringConfig
from repro.core.c4d.wait_chain import (
    WaitChainFinding,
    analyze_wait_chain,
    analyze_wait_chain_smoothed,
)

__all__ = [
    "Anomaly",
    "AnomalyType",
    "Suspect",
    "SuspectKind",
    "DelayMatrix",
    "MatrixFinding",
    "analyze_delay_matrix",
    "build_delay_matrix",
    "build_delay_matrix_reference",
    "WaitChainFinding",
    "analyze_wait_chain",
    "analyze_wait_chain_smoothed",
    "DetectorConfig",
    "HangDetector",
    "CommSlowDetector",
    "NonCommSlowDetector",
    "C4DMaster",
    "JobSteeringService",
    "SteeringAction",
    "SteeringConfig",
    "RootCauseAnalyzer",
    "RcaReport",
    "classify_fault",
    "CauseBucket",
]
