"""Tests for the unit constants."""

from repro.netsim import units


def test_mib_is_1024_kib():
    assert units.MIB == 1024 * units.KIB


def test_gib_is_1024_mib():
    assert units.GIB == 1024 * units.MIB


def test_kib_is_8192_bits():
    assert units.KIB == 8192
