"""Root-cause classification: from opaque symptoms to Table I buckets.

From the user's perspective almost every crash is an undifferentiated
"NCCL Error" (Table I); campaigns tabulate their ground-truth faults
into the table's cause buckets.
"""

from __future__ import annotations

import enum

from repro.cluster.faults import FaultEvent, FaultType


class CauseBucket(enum.Enum):
    """Root-cause buckets used in Tables I and III."""

    CUDA_ERROR = "CUDA Error"
    ECC_NVLINK = "ECC/NVLink Error"
    CCL_TIMEOUT = "CCL Timeout"
    ACK_TIMEOUT = "ACK Timeout"
    UNKNOWN = "Unknown"


#: Ground-truth fault type -> bucket (used when tabulating campaigns).
FAULT_TO_BUCKET = {
    FaultType.CUDA_ERROR: CauseBucket.CUDA_ERROR,
    FaultType.ECC_NVLINK_ERROR: CauseBucket.ECC_NVLINK,
    FaultType.CCL_TIMEOUT: CauseBucket.CCL_TIMEOUT,
    FaultType.ACK_TIMEOUT: CauseBucket.ACK_TIMEOUT,
    FaultType.NETWORK_OTHER: CauseBucket.UNKNOWN,
}


def classify_fault(event: FaultEvent) -> CauseBucket:
    """Bucket a ground-truth fault event (campaign tabulation)."""
    return FAULT_TO_BUCKET.get(event.fault_type, CauseBucket.UNKNOWN)

