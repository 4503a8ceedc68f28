"""The plain-Python median against ``np.median``, bit for bit."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.c4d.median import MAX_PLAIN, median


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def reference(values: list[float]) -> float:
    return float(np.median(values))


#: Ties, signed zeros and the non-finite values, among ordinary floats.
special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan])
values = st.one_of(special, st.floats(allow_nan=True, allow_infinity=True))


@given(st.lists(values, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_median_matches_numpy_bit_for_bit(data):
    # inf - inf and overflow warn inside np.median, on both sides.
    with np.errstate(invalid="ignore", over="ignore"):
        assert bits(median(data)) == bits(reference(data))


@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_median_of_signed_zeros_matches_numpy(data):
    assert bits(median(data)) == bits(reference(data))


@np.errstate(invalid="ignore", over="ignore")
def test_median_odd_and_even_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    # (a + b) / 2, as numpy's mean of the middle pair: overflows to inf.
    big = [1.7e308, 1.7e308, -1.0, 1.75e308]
    assert median(big) == reference(big) == math.inf
    assert math.isnan(median([-math.inf, math.inf]))


def test_median_propagates_nan():
    assert math.isnan(median([1.0, math.nan, 2.0]))
    assert math.isnan(median([math.nan]))


def test_median_above_the_plain_size_is_numpy():
    rng = np.random.default_rng(0)
    for size in (MAX_PLAIN, MAX_PLAIN + 1, 3 * MAX_PLAIN):
        data = rng.normal(size=size).tolist()
        assert bits(median(data)) == bits(reference(data))
