"""Tests for the Fig. 7 delay-matrix analysis.

The module also holds the differential oracles of the columnar build and
analysis: :func:`build_delay_matrix_reference` (per-pair ``np.median``)
and :func:`analyze_delay_matrix_reference` (a walk over the
``{pair: score}`` dict).  The reference build skips the records the
collector marks invalid: those whose size or rate is not a finite
positive number.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collective.communicator import RankLocation
from repro.collective.monitoring import CommunicatorRecord, MessageRecord
from repro.core.c4d.delay_matrix import (
    ROW_FRACTION,
    SLOW_THRESHOLD,
    MatrixFinding,
    analyze_delay_matrix,
    build_delay_matrix,
)
from repro.core.c4d.detectors import CommSlowDetector, DetectorConfig
from repro.core.c4d.events import Suspect, SuspectKind
from repro.core.c4d.median import MAX_PLAIN
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.collector import CentralCollector


# -- the differential oracles ------------------------------------------


def build_delay_matrix_reference(records) -> dict:
    """``{pair: score}`` of ``records``, each score a per-pair ``np.median``.

    The pairs keep their first appearance among the valid records.
    """
    samples = {}
    for record in records:
        size = record.size_bits
        if not (0 < size < math.inf and 0 < record.duration / size < math.inf):
            continue
        key = ((record.src_node, record.src_nic), (record.dst_node, record.dst_nic))
        samples.setdefault(key, []).append(record.duration / size)
    return {key: float(np.median(values)) for key, values in samples.items()}


def analyze_delay_matrix_reference(scores: dict, threshold: float = SLOW_THRESHOLD):
    """:func:`analyze_delay_matrix` as a walk over a ``{pair: score}`` dict."""
    if not scores:
        return MatrixFinding(suspects=(), flagged_pairs=(), baseline=float("nan"), max_ratio=0.0)
    baseline = float(np.median(list(scores.values())))

    ratios = [score / baseline for score in scores.values()]
    flagged = [pair for pair, ratio in zip(scores, ratios) if ratio > threshold]
    max_ratio = max(ratios)
    if not flagged:
        return MatrixFinding(suspects=(), flagged_pairs=(), baseline=baseline, max_ratio=max_ratio)

    # Per-worker flagged/observed tallies over rows (as src) and columns
    # (as dst).  Only a worker with two flagged pairs can be promoted, so
    # only those workers' observed pairs are counted.
    hit = {}
    for src, dst in flagged:
        hit[src] = hit.get(src, 0) + 1
        hit[dst] = hit.get(dst, 0) + 1
    observed = {worker: 0 for worker, hits in hit.items() if hits >= 2}
    for src, dst in scores:
        if src in observed:
            observed[src] += 1
        if dst in observed:
            observed[dst] += 1
    worker_suspects = [
        worker
        for worker, hits in hit.items()
        if hits >= 2 and hits / observed[worker] >= ROW_FRACTION
    ]
    suspects = [
        Suspect(kind=SuspectKind.WORKER, node=node, device=nic) for node, nic in worker_suspects
    ]
    by_node = {}
    for node, _nic in worker_suspects:
        by_node[node] = by_node.get(node, 0) + 1
    node_suspects = {node for node, count in by_node.items() if count >= 2}
    if node_suspects:
        suspects = [s for s in suspects if s.node not in node_suspects] + [
            Suspect(kind=SuspectKind.NODE, node=node) for node in sorted(node_suspects)
        ]
    explained = set(worker_suspects)
    for src, dst in flagged:
        if src in explained or dst in explained:
            continue
        if src[0] in node_suspects or dst[0] in node_suspects:
            continue
        suspects.append(
            Suspect(
                kind=SuspectKind.CONNECTION,
                node=src[0],
                device=src[1],
                peer_node=dst[0],
                peer_device=dst[1],
            )
        )
    return MatrixFinding(
        suspects=tuple(suspects),
        flagged_pairs=tuple(flagged),
        baseline=baseline,
        max_ratio=max_ratio,
    )


def assert_same_finding(found: MatrixFinding, expected: MatrixFinding) -> None:
    """Equal suspects and flagged pairs, in order; baseline and max ratio bit for bit."""
    assert found.suspects == expected.suspects
    assert found.flagged_pairs == expected.flagged_pairs
    for name in ("baseline", "max_ratio"):
        a, b = getattr(found, name), getattr(expected, name)
        assert type(a) is float, name
        assert same_score(a, b), (name, a, b)


# -- unit tests --------------------------------------------------------


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
    finding = analyze_delay_matrix(build_delay_matrix([]))
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
    assert len({worker for pair in matrix.pairs for worker in pair}) == 4


def test_matrix_columns_line_up():
    records = [message(2, 3, 1.0), message(0, 1, 2.0, src_nic=1), message(2, 3, 3.0)]
    matrix = build_delay_matrix(records)
    assert matrix.pairs == [((2, 0), (3, 0)), ((0, 1), (1, 0))]
    assert matrix.values.tolist() == [0.02, 0.02]
    # Worker ids in first appearance: (2, 0), (3, 0), (0, 1), (1, 0).
    assert matrix.ends.tolist() == [[0, 1], [2, 3]]
    assert matrix.scores == {((2, 0), (3, 0)): 0.02, ((0, 1), (1, 0)): 0.02}


# -- the scalar median build against the np.median reference ----------

#: Few distinct values, so exact ties and repeated medians are common.
TIED = (0.5, 1.0, 1.0, 2.0, 3.0)
#: Non-positive, unbounded and undefined samples: all of them skipped.
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
    reference = list(build_delay_matrix_reference(records).items())
    assert [key for key, _ in fast] == [key for key, _ in reference]
    for (_, a), (_, b) in zip(fast, reference):
        assert type(a) is float
        assert same_score(a, b), (a, b)


def test_build_median_of_even_count_averages_middle_pair():
    records = [message(0, 1, d) for d in (4.0, 1.0, 3.0, 2.0)]
    assert build_delay_matrix(records).scores[((0, 0), (1, 0))] == pytest.approx(0.025)


def test_build_skips_non_finite_samples():
    records = [
        message(0, 1, 1.0),
        message(0, 1, math.nan),
        message(0, 1, math.inf),
        message(0, 1, 1.0, size=math.nan),
        message(0, 1, 1.0, size=math.inf),
        message(1, 2, math.nan),
    ]
    assert build_delay_matrix(records).scores == {((0, 0), (1, 0)): 0.01}


def test_non_finite_messages_leave_a_slow_nic_flagged():
    # Worker (3, 0)'s NIC is 4x slow, in and out.  One message has a NaN
    # size and one an unbounded duration; neither may blind the window.
    records = ring_messages(8, overrides={(2, 3): 4.0, (3, 4): 4.0})
    records.append(message(5, 6, 1.0, size=math.nan))
    records.append(message(6, 7, math.inf))
    collector = CentralCollector(metrics=MetricsRegistry())
    ranks = tuple(RankLocation(node, 0) for node in range(8))
    collector.ingest_communicator(CommunicatorRecord("c", len(ranks), ranks))
    for seq in (0, 1):
        for record in records:
            collector.ingest_message(dataclasses.replace(record, seq=seq))
    detector = CommSlowDetector(collector, DetectorConfig(), MetricsRegistry())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (anomaly,) = detector.evaluate(10.0)
    assert anomaly.suspects == (Suspect(kind=SuspectKind.WORKER, node=3, device=0),)
    assert set(anomaly.evidence["flagged_pairs"]) == {((2, 0), (3, 0)), ((3, 0), (4, 0))}
    assert anomaly.evidence["max_ratio"] == pytest.approx(4.0)


# -- the columnar analysis against the dict walk -------------------------

WORKERS = [(node, nic) for node in range(3) for nic in range(2)]
#: Thresholds of a plain pass and of hysteresis passes; a slow pair's
#: factor is drawn from the same values, so ratios land exactly on them.
THRESHOLDS = (SLOW_THRESHOLD, SLOW_THRESHOLD * 0.9, SLOW_THRESHOLD * 0.6)
FACTORS = (1.0, 2.0, 4.0, *THRESHOLDS)
#: Sizes that make a message invalid (skipped).
ODD_SIZES = (0.0, -1.0, math.inf, math.nan)
thresholds = st.one_of(
    st.sampled_from(THRESHOLDS),
    st.floats(min_value=0.05, max_value=1.0).map(lambda h: SLOW_THRESHOLD * h),
)


@st.composite
def windows(draw):
    """Messages among six workers of three nodes, some workers slow.

    A message of a slow worker takes a slow factor longer, in and out.
    Each window also draws a few odd samples that its messages take now
    and then: a non-positive, unbounded or NaN duration or size, which
    make the message invalid (skipped).  Its usual healthy sample is 1,
    a random one, or an unbounded one, which leaves only the slow
    workers' messages in the matrix.
    """
    slow = draw(st.sets(st.sampled_from(WORKERS), max_size=4))
    jitter = draw(st.floats(min_value=0.5, max_value=2.0))
    usual_duration, usual_size = draw(
        st.sampled_from(((1.0, 1.0), (1.0, 1.0), (jitter, 1.0), (1.0, math.inf), (math.inf, 1.0)))
    )
    odd_durations = tuple(draw(st.lists(st.sampled_from(EDGE), max_size=2)))
    odd_sizes = tuple(draw(st.lists(st.sampled_from(ODD_SIZES), max_size=2)))
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=50))):
        src, dst = draw(st.sampled_from(WORKERS)), draw(st.sampled_from(WORKERS))
        if src in slow or dst in slow:
            durations = FACTORS
        else:
            durations = (usual_duration,) * 4
        duration = draw(st.sampled_from(durations + odd_durations))
        size = draw(st.sampled_from((usual_size,) * 4 + odd_sizes))
        records.append(message(src[0], dst[0], duration, size, src[1], dst[1]))
    return records


@given(windows(), thresholds)
@settings(max_examples=400, deadline=None)
def test_analysis_matches_dict_walk(records, threshold):
    # No NaN reaches the matrix, so no ratio is undefined.
    with np.errstate(invalid="raise"):
        found = analyze_delay_matrix(build_delay_matrix(records), threshold)
        expected = analyze_delay_matrix_reference(
            build_delay_matrix_reference(records), threshold
        )
    assert_same_finding(found, expected)


@st.composite
def rings(draw):
    """A ring of about MAX_PLAIN workers, eight to a node, some slow.

    Worker ``k`` sends to ``k + 1``; both pairs of a slow worker are
    slow, and two slow workers of one node make a node suspect.
    """
    count = draw(st.integers(min_value=MAX_PLAIN - 2, max_value=MAX_PLAIN + 2))
    slow = draw(st.sets(st.integers(min_value=0, max_value=count - 1), max_size=6))
    # One NaN sample drops its pair from the matrix; most rings hold none.
    undefined = draw(st.sampled_from((None, None, None, draw(st.integers(0, count - 1)))))
    factor = draw(st.sampled_from(FACTORS))
    records = []
    for k in range(count):
        j = (k + 1) % count
        duration = factor if slow & {k, j} else 1.0
        if k == undefined:
            duration = math.nan
        records.append(message(k // 8, j // 8, duration, 1.0, k % 8, j % 8))
    return records


@given(rings(), thresholds)
@settings(max_examples=60, deadline=None)
def test_analysis_matches_dict_walk_around_max_plain(records, threshold):
    found = analyze_delay_matrix(build_delay_matrix(records), threshold)
    expected = analyze_delay_matrix_reference(build_delay_matrix_reference(records), threshold)
    assert_same_finding(found, expected)
