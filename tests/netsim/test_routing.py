"""Tests for deterministic ECMP hashing."""

import pytest

from repro.netsim.routing import EcmpHasher, FiveTuple


TUPLE = FiveTuple(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=50000, dst_port=4791)


def test_choice_is_deterministic():
    hasher = EcmpHasher(seed=1)
    assert hasher.choose(TUPLE, 8) == hasher.choose(TUPLE, 8)


def test_seed_changes_choices():
    choices = {EcmpHasher(seed=s).choose(TUPLE, 1 << 16) for s in range(20)}
    assert len(choices) > 1


def test_stage_decorrelates():
    hasher = EcmpHasher(seed=1)
    values = {hasher.choose(TUPLE, 1 << 16, stage=f"s{i}") for i in range(20)}
    assert len(values) > 1


def test_choice_in_range():
    hasher = EcmpHasher(seed=3)
    for port in range(49152, 49252):
        ft = FiveTuple(src_ip="a", dst_ip="b", src_port=port, dst_port=4791)
        assert 0 <= hasher.choose(ft, 7) < 7


def test_zero_choices_rejected():
    with pytest.raises(ValueError):
        EcmpHasher().choose(TUPLE, 0)


def test_distribution_roughly_uniform():
    hasher = EcmpHasher(seed=5)
    counts = [0] * 8
    for port in range(49152, 49152 + 4096):
        ft = FiveTuple(src_ip="10.1.2.3", dst_ip="10.4.5.6", src_port=port, dst_port=4791)
        counts[hasher.choose(ft, 8)] += 1
    expected = 4096 / 8
    for count in counts:
        assert abs(count - expected) < expected * 0.25


