"""Tests for flow lifecycle objects."""

import math

import pytest

from repro.netsim.flows import Flow, FlowState


def test_flow_initial_state():
    flow = Flow(flow_id="f", path=["a"], size=100.0)
    assert flow.state is FlowState.ACTIVE
    assert flow.remaining == 100.0
    assert math.isnan(flow.start_time)
    assert math.isnan(flow.end_time)


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        Flow(flow_id="f", path=["a"], size=0.0)


def test_invalid_weight_rejected():
    with pytest.raises(ValueError):
        Flow(flow_id="f", path=["a"], size=1.0, weight=0.0)


def test_empty_path_rejected():
    with pytest.raises(ValueError):
        Flow(flow_id="f", path=[], size=1.0)


def test_invalid_rate_cap_rejected():
    with pytest.raises(ValueError):
        Flow(flow_id="f", path=["a"], size=1.0, rate_cap=-1.0)


def test_reroute_replaces_path():
    flow = Flow(flow_id="f", path=["a", "b"], size=1.0)
    flow.reroute(["c"])
    assert list(flow.path) == ["c"]


def test_reroute_unstalls():
    flow = Flow(flow_id="f", path=["a"], size=1.0)
    flow.state = FlowState.STALLED
    flow.reroute(["b"])
    assert flow.state is FlowState.ACTIVE


def test_reroute_empty_path_rejected():
    flow = Flow(flow_id="f", path=["a"], size=1.0)
    with pytest.raises(ValueError):
        flow.reroute([])


def test_duration_and_mean_rate():
    flow = Flow(flow_id="f", path=["a"], size=100.0)
    flow.start_time = 1.0
    flow.end_time = 3.0
    assert flow.duration == 2.0
    assert flow.size / flow.duration == 50.0


def test_metadata_defaults_to_dict():
    flow = Flow(flow_id="f", path=["a"], size=1.0)
    flow.metadata["k"] = "v"
    assert flow.metadata["k"] == "v"
