"""Tests for the Fig. 7 delay-matrix analysis."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.collective.monitoring import MessageRecord
from repro.core.c4d.delay_matrix import (
    DelayMatrix,
    analyze_delay_matrix,
    build_delay_matrix,
    build_delay_matrix_reference,
)
from repro.core.c4d.events import SuspectKind


def message(src, dst, duration, size=100.0, src_nic=0, dst_nic=0):
    return MessageRecord(
        comm_id="c", seq=0, src_node=src, src_nic=src_nic, dst_node=dst, dst_nic=dst_nic,
        src_ip="a", dst_ip="b", qp_num=1, src_port=1, message_index=0,
        size_bits=size, post_time=0.0, complete_time=duration,
    )


def ring_messages(num_nodes, base_duration=1.0, overrides=None):
    """A ring of worker pairs with optional per-edge duration overrides."""
    overrides = overrides or {}
    records = []
    for i in range(num_nodes):
        j = (i + 1) % num_nodes
        duration = overrides.get((i, j), base_duration)
        for _ in range(4):
            records.append(message(i, j, duration))
    return records


def test_build_matrix_normalizes_by_size():
    records = [message(0, 1, 1.0, size=100.0), message(1, 2, 2.0, size=200.0)]
    matrix = build_delay_matrix(records)
    assert matrix.scores[((0, 0), (1, 0))] == pytest.approx(0.01)
    assert matrix.scores[((1, 0), (2, 0))] == pytest.approx(0.01)


def test_build_matrix_skips_degenerate_records():
    records = [message(0, 1, 0.0), message(0, 1, 1.0, size=0.0)]
    assert build_delay_matrix(records).scores == {}


def test_healthy_matrix_not_anomalous():
    finding = analyze_delay_matrix(build_delay_matrix(ring_messages(8)))
    assert not finding.is_anomalous
    assert finding.suspects == ()


def test_empty_matrix():
    finding = analyze_delay_matrix(DelayMatrix())
    assert not finding.is_anomalous


def test_single_slow_connection_flags_pair():
    records = ring_messages(8, overrides={(2, 3): 4.0})
    finding = analyze_delay_matrix(build_delay_matrix(records))
    assert finding.is_anomalous
    assert ((2, 0), (3, 0)) in finding.flagged_pairs


def test_slow_worker_row_and_column():
    # Worker (3, 0) is slow as both source and destination -> WORKER suspect.
    records = ring_messages(8, overrides={(3, 4): 4.0, (2, 3): 4.0})
    finding = analyze_delay_matrix(build_delay_matrix(records))
    workers = [s for s in finding.suspects if s.kind is SuspectKind.WORKER]
    assert any(s.node == 3 and s.device == 0 for s in workers)


def test_connection_suspect_when_no_worker_pattern():
    records = ring_messages(8, overrides={(5, 6): 5.0})
    finding = analyze_delay_matrix(build_delay_matrix(records))
    conns = [s for s in finding.suspects if s.kind is SuspectKind.CONNECTION]
    assert len(conns) == 1
    assert conns[0].node == 5 and conns[0].peer_node == 6


def test_node_promotion_when_multiple_workers_slow():
    # Two NICs of node 3 slow in both directions -> NODE suspect.
    records = []
    for nic in (0, 1):
        for i in range(8):
            j = (i + 1) % 8
            duration = 4.0 if 3 in (i, j) else 1.0
            for _ in range(4):
                records.append(message(i, j, duration, src_nic=nic, dst_nic=nic))
    finding = analyze_delay_matrix(build_delay_matrix(records))
    nodes = [s for s in finding.suspects if s.kind is SuspectKind.NODE]
    assert any(s.node == 3 for s in nodes)


def test_threshold_controls_sensitivity():
    records = ring_messages(8, overrides={(2, 3): 1.5})
    matrix = build_delay_matrix(records)
    strict = analyze_delay_matrix(matrix, threshold=1.2)
    lax = analyze_delay_matrix(matrix, threshold=2.0)
    assert strict.is_anomalous
    assert not lax.is_anomalous


def test_max_ratio_reported():
    records = ring_messages(8, overrides={(2, 3): 4.0})
    finding = analyze_delay_matrix(build_delay_matrix(records))
    assert finding.max_ratio == pytest.approx(4.0, rel=0.01)


def test_baseline_is_median():
    matrix = build_delay_matrix(ring_messages(8, overrides={(0, 1): 10.0}))
    assert matrix.baseline() == pytest.approx(0.01)


def test_workers_enumeration():
    matrix = build_delay_matrix(ring_messages(4))
    assert len(matrix.workers) == 4


# -- the scalar median build against the np.median reference ----------

#: Few distinct values, so exact ties and repeated medians are common.
TIED = (0.5, 1.0, 1.0, 2.0, 3.0)
#: Skipped (non-positive), unbounded and undefined samples.
EDGE = (0.0, -1.0, math.inf, math.nan)
sample_values = st.one_of(
    st.sampled_from(TIED),
    st.sampled_from(EDGE),
    st.floats(min_value=1e-9, max_value=1e9),
)
pairs = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1),
)


@st.composite
def message_lists(draw):
    """Messages on a few worker pairs, so pairs repeat an odd or even
    number of times."""
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        src, src_nic, dst, dst_nic = draw(pairs)
        records.append(
            message(
                src,
                dst,
                draw(sample_values),
                size=draw(st.one_of(st.just(100.0), sample_values)),
                src_nic=src_nic,
                dst_nic=dst_nic,
            )
        )
    return records


def same_score(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a.hex() == b.hex()


@given(message_lists())
@settings(max_examples=300, deadline=None)
def test_build_matches_reference_bit_for_bit(records):
    fast = list(build_delay_matrix(records).scores.items())
    reference = list(build_delay_matrix_reference(records).scores.items())
    assert [key for key, _ in fast] == [key for key, _ in reference]
    for (_, a), (_, b) in zip(fast, reference):
        assert type(a) is float
        assert same_score(a, b), (a, b)


def test_build_median_of_even_count_averages_middle_pair():
    records = [message(0, 1, d) for d in (4.0, 1.0, 3.0, 2.0)]
    assert build_delay_matrix(records).scores[((0, 0), (1, 0))] == pytest.approx(0.025)


def test_build_nan_sample_poisons_its_pair_only():
    records = [message(0, 1, 1.0), message(0, 1, math.nan), message(1, 2, 1.0)]
    scores = build_delay_matrix(records).scores
    assert math.isnan(scores[((0, 0), (1, 0))])
    assert scores[((1, 0), (2, 0))] == pytest.approx(0.01)
