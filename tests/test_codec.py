"""Wire-format pins for :mod:`repro.codec`.

The literal payloads below are the wire format that state digests hash;
they were written by the hand-coded serializers the codec replaced.  A
payload that changes shape changes every digest.
"""

from repro import codec
from repro.cluster.topology import PathChoice
from repro.codec import canonical_pairs, encode
from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import (
    CommunicatorRecord,
    MessageRecord,
    OpLaunchRecord,
    OpRecord,
)
from repro.collective.selectors import PathRequest, QpAllocation
from repro.core.c4d.events import Anomaly, AnomalyType, Suspect, SuspectKind
from repro.core.c4d.steering import SteeringAction
from repro.core.c4p.health import LinkHealthState
from repro.core.c4p.master import AllocationRecord
from repro.netsim.routing import FiveTuple

LOC = RankLocation(3, 2)
ANOMALY = Anomaly(
    AnomalyType.COMM_SLOW,
    "c0",
    60.0,
    (Suspect(SuspectKind.CONNECTION, 0, 1, 3, 1), Suspect(SuspectKind.NODE, node=3)),
    evidence={"max_ratio": 4.0, "seqs": (5, 6)},
)
ANOMALY_PAYLOAD = {
    "anomaly_type": "communication_slow",
    "comm_id": "c0",
    "detected_at": 60.0,
    "suspects": [["connection", 0, 1, 3, 1], ["node", 3, None, None, None]],
    "evidence": {"max_ratio": 4.0, "seqs": [5, 6]},
}
REQUEST = PathRequest("c0", "job0", 0, 1, 4, 1, 2)
REQUEST_PAYLOAD = {
    "comm_id": "c0",
    "job_id": "job0",
    "src_node": 0,
    "src_nic": 1,
    "dst_node": 4,
    "dst_nic": 1,
    "num_qps": 2,
}

PINNED = [
    (
        CommunicatorRecord("c0", 2, (RankLocation(0, 1), LOC)),
        {"comm_id": "c0", "size": 2, "ranks": [[0, 1], [3, 2]]},
    ),
    (
        OpLaunchRecord("c0", 7, OpType.ALLREDUCE, 1, LOC, 1.5),
        {
            "comm_id": "c0",
            "seq": 7,
            "op_type": "allreduce",
            "rank": 1,
            "location": [3, 2],
            "launch_time": 1.5,
        },
    ),
    (
        OpRecord("c0", 7, OpType.ALLTOALL, Algorithm.PAIRWISE, "fp16", 1024, 1, LOC, 1.5, 1.75, 2.25),
        {
            "comm_id": "c0",
            "seq": 7,
            "op_type": "alltoall",
            "algorithm": "pairwise",
            "dtype": "fp16",
            "element_count": 1024,
            "rank": 1,
            "location": [3, 2],
            "launch_time": 1.5,
            "start_time": 1.75,
            "end_time": 2.25,
        },
    ),
    (
        MessageRecord(
            "c0", 7, 0, 1, 3, 1, "10.0.0.2", "10.0.3.2", 42, 49153, 5, 8192.0, 2.0, 2.5
        ),
        {
            "comm_id": "c0",
            "seq": 7,
            "src_node": 0,
            "src_nic": 1,
            "dst_node": 3,
            "dst_nic": 1,
            "src_ip": "10.0.0.2",
            "dst_ip": "10.0.3.2",
            "qp_num": 42,
            "src_port": 49153,
            "message_index": 5,
            "size_bits": 8192.0,
            "post_time": 2.0,
            "complete_time": 2.5,
        },
    ),
    (ANOMALY, ANOMALY_PAYLOAD),
    (
        SteeringAction(ANOMALY, (3,), (14,), 190.0, False, 2, 10.0, (15,), ()),
        {
            "anomaly": ANOMALY_PAYLOAD,
            "isolated_nodes": [3],
            "replacement_nodes": [14],
            "ready_at": 190.0,
            "pool_exhausted": False,
            "attempts": 2,
            "backoff_seconds": 10.0,
            "doa_replacements": [15],
            "failed_isolations": [],
        },
    ),
    (
        AllocationRecord(
            rail=1,
            request=REQUEST,
            alloc=QpAllocation(
                500001,
                49160,
                FiveTuple("10.0.0.2", "10.0.4.2", 49160, 4791),
                PathChoice(0, 3, 1, 1, 2),
                [("hup", 1, 0, 3, 1), ("hdn", 1, 3, 1, 2)],
                0.5,
            ),
        ),
        {
            "rail": 1,
            "request": REQUEST_PAYLOAD,
            "alloc": {
                "qp_num": 500001,
                "src_port": 49160,
                "five_tuple": ["10.0.0.2", "10.0.4.2", 49160, 4791, 17],
                "choice": [0, 3, 1, 1, 2],
                "path": [["hup", 1, 0, 3, 1], ["hdn", 1, 3, 1, 2]],
                "weight": 0.5,
            },
        },
    ),
    (REQUEST, REQUEST_PAYLOAD),
]


def test_journaled_types_encode_to_pinned_payloads():
    for value, payload in PINNED:
        assert encode(value) == payload, type(value).__name__


def test_positional_types_are_fixed():
    assert codec.positional_types() == {RankLocation, Suspect, FiveTuple, PathChoice}


def test_canonical_pairs_sorts_by_repr_of_encoded_pair():
    mapping = {("hup", 2): LinkHealthState.PROBATION, ("hup", 10): LinkHealthState.QUARANTINED}
    pairs = canonical_pairs(mapping)
    # repr order of the encoded pair, not tuple order: "10" sorts before "2".
    assert pairs == [
        (("hup", 10), LinkHealthState.QUARANTINED),
        (("hup", 2), LinkHealthState.PROBATION),
    ]
    assert encode(pairs) == [[["hup", 10], "quarantined"], [["hup", 2], "probation"]]


def test_sets_encode_sorted_by_repr():
    links = {("hup", 10, 1), ("hup", 2, 0)}
    assert encode(links) == [["hup", 10, 1], ["hup", 2, 0]]
    assert encode(frozenset(links)) == encode(links)


def test_plans_are_built_once_per_class():
    record = PINNED[2][0]
    encode(record)
    encoders = codec._encoder.cache_info()
    for _ in range(3):
        encode(record)
    assert codec._encoder.cache_info().misses == encoders.misses

