"""Tests for the JSON export helpers."""

import json

from repro.analysis.export import write_json
from repro.codec import encode
from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import MessageRecord, OpRecord


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
    path = write_json(
        tmp_path / "records.json", {"ops": [op_record()], "messages": [message_record()]}
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


