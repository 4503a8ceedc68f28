"""Export monitoring records and experiment results to JSON/CSV.

Production C4 feeds dashboards and offline analysis from the master's
record store; these helpers provide the equivalent serialization layer
for the simulation, so runs can be archived and compared outside
Python.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.chaos.scorecard import CampaignScorecard, EpisodeOutcome, ScenarioScorecard
from repro.codec import encode
from repro.collective.monitoring import MessageRecord, OpRecord
from repro.training.lifetime import DowntimeBreakdown


def downtime_to_dict(breakdown: DowntimeBreakdown) -> dict:
    """Serialize a downtime breakdown including per-bucket diagnosis."""
    return {
        "duration_seconds": breakdown.duration_seconds,
        "crash_count": breakdown.crash_count,
        "post_checkpoint_seconds": breakdown.post_checkpoint_seconds,
        "detection_seconds": breakdown.detection_seconds,
        "diagnosis_seconds": breakdown.diagnosis_seconds,
        "reinit_seconds": breakdown.reinit_seconds,
        "total_seconds": breakdown.total_seconds,
        "total_fraction": breakdown.fraction(breakdown.total_seconds),
        "diagnosis_by_bucket": {
            bucket.value: seconds
            for bucket, seconds in breakdown.diagnosis_by_bucket.items()
        },
    }


def scenario_scorecard_to_dict(card: ScenarioScorecard) -> dict:
    """Serialize one chaos scenario's score, including derived metrics."""
    payload = encode(card)
    payload["precision"] = card.precision
    payload["recall"] = card.recall
    payload["episodes"] = [_episode_to_dict(outcome) for outcome in card.episodes]
    return payload


def _episode_to_dict(outcome: EpisodeOutcome) -> dict:
    """An episode's outcome with its storm nodes in place of per-node counts."""
    payload = encode(outcome)
    del payload["isolations_per_node"]
    payload["storm_nodes"] = encode(outcome.storm_nodes)
    return payload


def campaign_scorecard_to_dict(
    card: CampaignScorecard, observability: dict | None = None
) -> dict:
    """Serialize a full chaos campaign scorecard (the ``repro chaos`` payload).

    ``observability`` optionally embeds the campaign's observability
    snapshot (``ObservabilityPlane.snapshot()``) so one archived document
    carries both the judgment and the telemetry that explains it.
    """
    payload = {
        "precision": card.precision,
        "recall": card.recall,
        "false_isolations": card.false_isolations,
        "isolation_storms": card.isolation_storms,
        "wasted_backups": card.wasted_backups,
        "mttr": card.mttr_stats(),
        "scenarios": [scenario_scorecard_to_dict(s) for s in card.scenarios],
    }
    if observability is not None:
        payload["observability"] = observability
    return payload


def write_json(path: str | Path, payload) -> Path:
    """Write any :func:`repro.codec.encode`-able payload to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(encode(payload), indent=2, sort_keys=True))
    return path


def write_records_json(
    path: str | Path,
    ops: Iterable[OpRecord] = (),
    messages: Iterable[MessageRecord] = (),
) -> Path:
    """Dump monitoring records to one JSON document, in their journal form."""
    return write_json(path, {"ops": list(ops), "messages": list(messages)})


def write_series_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Iterable[Sequence],
) -> Path:
    """Write a simple CSV (e.g. a busbw time series for plotting)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
    return path
