"""Tests for the wait-chain straggler analysis."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import OpRecord
from repro.core.c4d.median import MAX_PLAIN
from repro.core.c4d.wait_chain import analyze_wait_chain, find_stragglers


def records_with_launches(launches, comm="c"):
    start = max(launches)
    return [
        OpRecord(
            comm_id=comm, seq=0, op_type=OpType.ALLREDUCE, algorithm=Algorithm.RING,
            dtype="fp16", element_count=1, rank=rank, location=RankLocation(rank // 8, rank % 8),
            launch_time=launch, start_time=start, end_time=start + 1.0,
        )
        for rank, launch in enumerate(launches)
    ]


def test_uniform_launches_no_straggler():
    finding = analyze_wait_chain(records_with_launches([0.0] * 16))
    assert not finding.is_anomalous


def test_jitter_tolerated():
    import numpy as np

    rng = np.random.default_rng(0)
    launches = list(rng.uniform(0.0, 0.01, 16))
    finding = analyze_wait_chain(records_with_launches(launches), min_lateness=0.05)
    assert not finding.is_anomalous


def test_single_straggler_identified():
    launches = [0.0] * 16
    launches[11] = 2.0
    finding = analyze_wait_chain(records_with_launches(launches))
    assert finding.is_anomalous
    assert len(finding.suspects) == 1
    suspect = finding.suspects[0]
    assert (suspect.node, suspect.device) == (1, 3)
    assert finding.lateness == pytest.approx(2.0)


def test_straggler_wait_semantics():
    # The straggler waits least; everyone else waits for it.
    launches = [0.0] * 8
    launches[2] = 1.0
    records = records_with_launches(launches)
    finding = analyze_wait_chain(records)
    assert finding.median_wait == pytest.approx(1.0)


def test_multiple_stragglers():
    launches = [0.0] * 16
    launches[3] = 1.5
    launches[9] = 1.4
    finding = analyze_wait_chain(records_with_launches(launches))
    nodes = {(s.node, s.device) for s in finding.suspects}
    assert (0, 3) in nodes and (1, 1) in nodes


def test_min_lateness_floor():
    launches = [0.0] * 8
    launches[1] = 0.02
    finding = analyze_wait_chain(records_with_launches(launches), min_lateness=0.05)
    assert not finding.is_anomalous


def test_too_few_records():
    finding = analyze_wait_chain(records_with_launches([0.0, 5.0]))
    assert not finding.is_anomalous


# -- the plain-Python analysis against the numpy oracle ----------------

#: Ties, a straggler, signed zeros and non-finite launches.
launch_times = st.one_of(
    st.sampled_from([0.0, -0.0, 0.01, 0.02, 2.0, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-1e3, max_value=1e3),
)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_same(records, min_lateness):
    with np.errstate(invalid="ignore", over="ignore"):
        expected = analyze_wait_chain(records, min_lateness)
        found = find_stragglers(records, min_lateness)
    assert found.suspects == expected.suspects
    assert bits(found.lateness) == bits(expected.lateness)
    assert bits(found.median_wait) == bits(expected.median_wait)


@given(
    st.lists(launch_times, min_size=0, max_size=24),
    st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=24, max_size=24),
    st.sampled_from([0.0, 0.05]),
)
@settings(max_examples=300, deadline=None)
def test_find_stragglers_matches_oracle_bit_for_bit(launches, starts, min_lateness):
    records = [
        OpRecord(
            comm_id="c", seq=0, op_type=OpType.ALLREDUCE, algorithm=Algorithm.RING,
            dtype="fp16", element_count=1, rank=rank, location=RankLocation(rank // 8, rank % 8),
            launch_time=launch, start_time=launch + wait, end_time=launch + wait + 1.0,
        )
        for rank, (launch, wait) in enumerate(zip(launches, starts))
    ]
    assert_same(records, min_lateness)


@given(st.lists(st.sampled_from([0.0, -0.0, -1.0, -2.0]), min_size=3, max_size=40))
@settings(max_examples=300, deadline=None)
def test_find_stragglers_with_signed_zeros_matches_oracle(launches):
    # numpy's max over +-0.0 ties depends on the list's length and order.
    assert_same(records_with_launches(launches), 0.0)


@pytest.mark.parametrize("ranks", [MAX_PLAIN, MAX_PLAIN + 1, 2 * MAX_PLAIN])
def test_find_stragglers_matches_oracle_at_the_plain_size(ranks):
    rng = np.random.default_rng(ranks)
    launches = rng.uniform(0.0, 0.02, ranks).tolist()
    launches[7] += 2.0
    assert_same(records_with_launches(launches), 0.05)
