"""Tests for placement helpers."""

import pytest

from repro.collective.placement import contiguous_ranks


def test_contiguous_order():
    ranks = contiguous_ranks([3, 5], 2)
    assert [(r.node, r.gpu) for r in ranks] == [(3, 0), (3, 1), (5, 0), (5, 1)]


def test_contiguous_validates_gpus():
    with pytest.raises(ValueError):
        contiguous_ranks([0], 0)


