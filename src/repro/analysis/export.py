"""Export experiment results and chaos scorecards to JSON.

Production C4 feeds dashboards and offline analysis from the master's
record store; these helpers provide the equivalent serialization layer
for the simulation, so runs can be archived and compared outside
Python.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.chaos.scorecard import CampaignScorecard, EpisodeOutcome, ScenarioScorecard
from repro.codec import encode


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


def campaign_scorecard_to_dict(card: CampaignScorecard) -> dict:
    """Serialize a full chaos campaign scorecard (the ``repro chaos`` payload)."""
    return {
        "precision": card.precision,
        "recall": card.recall,
        "false_isolations": card.false_isolations,
        "isolation_storms": card.isolation_storms,
        "wasted_backups": card.wasted_backups,
        "mttr": card.mttr_stats(),
        "scenarios": [scenario_scorecard_to_dict(s) for s in card.scenarios],
    }


def write_json(path: str | Path, payload) -> Path:
    """Write any :func:`repro.codec.encode`-able payload to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(encode(payload), indent=2, sort_keys=True))
    return path


