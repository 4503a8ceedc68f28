"""Tests for JSON/CSV export helpers."""

import json

import pytest

from repro.analysis.export import (
    downtime_to_dict,
    write_json,
    write_records_json,
    write_series_csv,
)
from repro.codec import encode
from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import MessageRecord, OpRecord
from repro.training.lifetime import BASELINE_OPERATIONS, LifetimeConfig, simulate_lifetime


def op_record():
    return OpRecord(
        comm_id="c", seq=1, op_type=OpType.ALLREDUCE, algorithm=Algorithm.RING,
        dtype="fp16", element_count=8, rank=2, location=RankLocation(1, 3),
        launch_time=0.0, start_time=0.5, end_time=1.5,
    )


def message_record():
    return MessageRecord(
        comm_id="c", seq=1, src_node=0, src_nic=1, dst_node=2, dst_nic=1,
        src_ip="a", dst_ip="b", qp_num=9, src_port=50000, message_index=0,
        size_bits=128.0, post_time=0.0, complete_time=0.25,
    )


def exported_records(tmp_path) -> dict:
    path = write_records_json(
        tmp_path / "records.json", ops=[op_record()], messages=[message_record()]
    )
    return json.loads(path.read_text())


def test_op_record_dict_roundtrips_to_json(tmp_path):
    data = exported_records(tmp_path)["ops"][0]
    # Records export in their journal form.
    assert data == encode(op_record())
    assert data["op_type"] == "allreduce"
    assert data["location"] == [1, 3]


def test_message_record_dict(tmp_path):
    data = exported_records(tmp_path)["messages"][0]
    assert data == encode(message_record())
    assert data["qp_num"] == 9


def test_downtime_dict():
    breakdown = simulate_lifetime(LifetimeConfig(seed=1), BASELINE_OPERATIONS)
    data = downtime_to_dict(breakdown)
    assert data["crash_count"] == breakdown.crash_count
    assert data["total_fraction"] == pytest.approx(
        breakdown.total_seconds / breakdown.duration_seconds
    )
    json.dumps(data)  # must be serializable


def test_write_records_json(tmp_path):
    path = write_records_json(
        tmp_path / "records.json", ops=[op_record()], messages=[message_record()]
    )
    payload = json.loads(path.read_text())
    assert len(payload["ops"]) == 1
    assert len(payload["messages"]) == 1


def test_write_json_handles_dataclasses_and_enums(tmp_path):
    from repro.experiments import table1

    result = table1.run(months=3, seed=1)
    path = write_json(tmp_path / "table1.json", result)
    payload = json.loads(path.read_text())
    assert payload["total_events"] == result.total_events
    assert isinstance(payload["rows"], list)


def test_write_json_encodes_enums_by_value(tmp_path):
    path = write_json(tmp_path / "enum.json", {"op": OpType.ALLREDUCE})
    assert json.loads(path.read_text()) == {"op": "allreduce"}


def test_write_series_csv(tmp_path):
    path = write_series_csv(
        tmp_path / "series.csv", ["t", "busbw"], [(0.0, 362.0), (0.1, 355.5)]
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,busbw"
    assert len(lines) == 3
