"""Tests for analysis helpers."""

import pytest

from repro.analysis.report import format_table
from repro.analysis.stats import summarize


def test_summarize_basic():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.minimum == 1.0
    assert summary.maximum == 4.0
    assert summary.p50 == pytest.approx(2.5)
    assert summary.spread == pytest.approx(3.0)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError, match="empty series"):
        summarize([])


def test_summarize_accepts_numpy_arrays():
    import numpy as np

    summary = summarize(np.array([2.0, 4.0]))
    assert summary.count == 2
    assert summary.mean == pytest.approx(3.0)
    # An empty array must raise cleanly, not trip numpy's ambiguous
    # truth-value error.
    with pytest.raises(ValueError, match="empty series"):
        summarize(np.array([]))


def test_summarize_accepts_generators():
    summary = summarize(v for v in (1.0, 3.0))
    assert summary.count == 2
    # An exhausted/empty generator is an empty series, not a crash.
    with pytest.raises(ValueError, match="empty series"):
        summarize(v for v in ())


def test_format_table_alignment():
    out = format_table(["a", "bb"], [["x", 1], ["yyyy", 22]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "yyyy" in lines[3]


