"""Tests for deterministic ECMP hashing."""

import hashlib

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



@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
@pytest.mark.parametrize("stage", ["", "up:0:1", "down:3:5", "bond:2:0"])
def test_port_hasher_equals_hash_value(seed, stage):
    hasher = EcmpHasher(seed=seed)
    hash_port = hasher.port_hasher("10.1.2.3", "10.4.5.6", 4791, stage=stage)
    for port in (0, 1, 9, 10, 4791, 49152, 50000, 65535):
        ft = FiveTuple(src_ip="10.1.2.3", dst_ip="10.4.5.6", src_port=port, dst_port=4791)
        # The one hash format: every field in one blake2b pass.
        payload = f"{seed}|{stage}|10.1.2.3|10.4.5.6|{port}|4791|17".encode()
        one_shot = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
        assert hash_port(port) == hasher.hash_value(ft, stage) == one_shot
    # A non-default protocol and destination port hash into the suffix.
    tcp = FiveTuple(src_ip="a", dst_ip="b", src_port=80, dst_port=443, protocol=6)
    assert hasher.port_hasher("a", "b", 443, 6, stage)(80) == hasher.hash_value(tcp, stage)
