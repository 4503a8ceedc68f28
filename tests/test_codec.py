"""Wire-format pins and round-trip properties for :mod:`repro.codec`.

The literal payloads below are the journal/snapshot format that replay
digests hash; they were written by the hand-coded serializers the codec
replaced.  A payload that changes shape changes every digest.
"""

import json

from hypothesis import given, settings, strategies as st

from repro import codec
from repro.cluster.topology import PathChoice
from repro.codec import decode, decode_pairs, encode, encode_pairs
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
        OpRecord("c0", 7, OpType.ALL_GATHER, Algorithm.TREE, "fp16", 1024, 1, LOC, 1.5, 1.75, 2.25),
        {
            "comm_id": "c0",
            "seq": 7,
            "op_type": "all_gather",
            "algorithm": "tree",
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
        assert decode(type(value), payload) == value, type(value).__name__


def test_positional_types_are_fixed():
    assert codec.positional_types() == {RankLocation, Suspect, FiveTuple, PathChoice}


def test_encode_pairs_sorts_by_repr_of_encoded_pair():
    mapping = {("hup", 10): LinkHealthState.QUARANTINED, ("hup", 2): LinkHealthState.PROBATION}
    pairs = encode_pairs(mapping)
    # repr order, not tuple order: "10" sorts before "2".
    assert pairs == [[["hup", 10], "quarantined"], [["hup", 2], "probation"]]
    assert decode_pairs(tuple, LinkHealthState, pairs) == mapping


def test_sets_encode_sorted_by_repr():
    links = {("hup", 10, 1), ("hup", 2, 0)}
    assert encode(links) == [["hup", 10, 1], ["hup", 2, 0]]
    assert decode(set[tuple], encode(links)) == links


def test_plans_are_built_once_per_class():
    record = PINNED[2][0]
    encode(record)
    decode(OpRecord, encode(record))
    encoders, decoders = codec._encoder.cache_info(), codec._decoder.cache_info()
    for _ in range(3):
        decode(OpRecord, encode(record))
    assert codec._encoder.cache_info().misses == encoders.misses
    assert codec._decoder.cache_info().misses == decoders.misses


# ----------------------------------------------------------------------
# Round trips over generated values
# ----------------------------------------------------------------------
ints = st.integers(0, 2**31)
times = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(max_size=6)
locations = st.builds(RankLocation, ints, ints)
suspects = st.builds(
    Suspect,
    st.sampled_from(SuspectKind),
    st.none() | ints,
    st.none() | ints,
    st.none() | ints,
    st.none() | ints,
)
anomalies = st.builds(
    Anomaly,
    st.sampled_from(AnomalyType),
    names,
    times,
    st.tuples(suspects) | st.lists(suspects, max_size=3).map(tuple),
    st.dictionaries(names, times | st.tuples(ints, ints), max_size=2),
)
node_tuples = st.lists(ints, max_size=3).map(tuple)
requests = st.builds(PathRequest, names, names, ints, ints, ints, ints, ints)
link_ids = st.tuples(st.sampled_from(["hup", "hdn"]), ints, ints, ints)
VALUES = st.one_of(
    st.builds(CommunicatorRecord, names, ints, st.lists(locations, max_size=3).map(tuple)),
    st.builds(
        OpLaunchRecord, names, ints, st.sampled_from(OpType), ints, locations, times
    ),
    st.builds(
        OpRecord,
        names,
        ints,
        st.sampled_from(OpType),
        st.sampled_from(Algorithm),
        names,
        ints,
        ints,
        locations,
        times,
        times,
        times,
    ),
    st.builds(
        MessageRecord,
        names, ints, ints, ints, ints, ints, names, names, ints, ints, ints,
        times, times, times,
    ),
    anomalies,
    st.builds(
        SteeringAction,
        anomalies,
        node_tuples,
        node_tuples,
        times,
        st.booleans(),
        ints,
        times,
        node_tuples,
        node_tuples,
    ),
    requests,
    st.builds(
        AllocationRecord,
        ints,
        requests,
        st.builds(
            QpAllocation,
            ints,
            ints,
            st.builds(FiveTuple, names, names, ints, ints, ints),
            st.builds(PathChoice, ints, ints, ints, ints, ints),
            st.lists(link_ids, max_size=3),
            times,
        ),
    ),
)


@given(VALUES)
@settings(max_examples=300, deadline=None)
def test_decode_inverts_encode(value):
    payload = encode(value)
    # The payload is plain JSON: it survives a text round trip unchanged.
    assert json.loads(json.dumps(payload)) == payload
    assert decode(type(value), payload) == value
