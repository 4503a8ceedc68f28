"""Tests for the lossy agent→master telemetry channel."""

import pytest

from repro.netsim.network import FlowNetwork
from repro.telemetry import unreliable
from repro.telemetry.unreliable import ChannelConfig, UnreliableChannel


def _run_channel(config, sends, seed=0):
    network = FlowNetwork()
    channel = UnreliableChannel(network, config, seed=seed)
    delivered = []
    for index in range(sends):
        channel.send(lambda index=index: delivered.append((index, network.now)))
    network.run(until=10_000.0)
    return channel, delivered


def test_perfect_channel_delivers_everything_with_latency(monkeypatch):
    monkeypatch.setattr(unreliable, "JITTER", 0.0)
    channel, delivered = _run_channel(ChannelConfig(), sends=20)
    assert len(delivered) == 20
    assert channel.delivered == 20
    assert channel.dropped_attempts == 0
    assert all(when == pytest.approx(0.5) for _i, when in delivered)


def test_drops_become_delays_not_losses(monkeypatch):
    # At-least-once: a dropped attempt retransmits after the timeout,
    # so with bounded loss every record still arrives — late.
    monkeypatch.setattr(unreliable, "MAX_RETRIES", 32)
    channel, delivered = _run_channel(ChannelConfig(drop_rate=0.5), sends=200, seed=3)
    assert {i for i, _w in delivered} == set(range(200))
    assert channel.dropped_attempts > 0
    assert channel.abandoned == 0
    # Retransmitted records paid at least one timeout.
    assert max(when for _i, when in delivered) >= 5.0


def test_duplicates_are_delivered_twice():
    config = ChannelConfig(duplicate_rate=0.5)
    channel, delivered = _run_channel(config, sends=100, seed=1)
    assert channel.duplicated > 0
    assert len(delivered) == 100 + channel.duplicated


def test_retry_budget_exhaustion_abandons(monkeypatch):
    monkeypatch.setattr(unreliable, "MAX_RETRIES", 1)
    channel, delivered = _run_channel(ChannelConfig(drop_rate=0.95), sends=100, seed=2)
    assert channel.abandoned > 0
    assert len(delivered) == 100 - channel.abandoned


def test_stats_and_in_flight_accounting():
    network = FlowNetwork()
    channel = UnreliableChannel(network, ChannelConfig(), seed=0)
    channel.send(lambda: None)
    stats = channel.stats()
    assert stats["sent"] == 1 and stats["delivered"] == 0  # in flight
    network.run(until=10.0)
    stats = channel.stats()
    assert stats["sent"] == 1 and stats["delivered"] == 1


def test_deterministic_under_seed():
    config = ChannelConfig(drop_rate=0.3, duplicate_rate=0.2)
    channel_a, delivered_a = _run_channel(config, sends=150, seed=9)
    channel_b, delivered_b = _run_channel(config, sends=150, seed=9)
    assert delivered_a == delivered_b
    assert channel_a.stats() == channel_b.stats()


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(drop_rate=1.5)
    with pytest.raises(ValueError):
        ChannelConfig(duplicate_rate=-0.1)
