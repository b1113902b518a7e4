"""Episode-log serialisation: each line is ``json.dumps(record,
sort_keys=True)`` of its entry, on the edge values too."""

from __future__ import annotations

import json
import math

import pytest

from tollgate import runio
from tollgate.cli import main
from tollgate.gate import EpisodeLog, GateEntry, Verdict
from tollgate.scenario import bundled_scenario_path

INF, NAN = math.inf, math.nan

# (budget_after, envelope_value) pairs: non-finite, signed zero, the
# smallest subnormal, a float whose repr switches to exponent notation
_FLOATS = [
    (INF, 0.0),
    (-INF, INF),
    (NAN, -INF),
    (1.5, NAN),
    (-0.0, 5e-324),
    (1e16, -0.0),
    (0.1 + 0.2, 1e-7),
]

_LABELS = [
    "plain",
    "café ☃ \U0001f600",
    'say "hi"',
    "back\\slash",
    "ctl\x00\x01\x1f\x7f\n\t\r\b\f",
    "\ud800 lone surrogate",
    "",
]


def _record(log: EpisodeLog, entry: GateEntry) -> dict:
    return {
        "episode": log.episode,
        "step": entry.step,
        "time": entry.time,
        "state": entry.state,
        "proposed": entry.proposed,
        "envelope_value": entry.envelope_value,
        "verdict": entry.verdict.value,
        "executed": entry.executed,
        "budget_after": entry.budget_after,
        "boundary_version": entry.boundary_version,
    }


def _edge_logs() -> list[EpisodeLog]:
    verdicts = list(Verdict)
    logs = []
    for episode, label in enumerate(_LABELS):
        entries = tuple(
            GateEntry(
                step, step, label, label[::-1] + "p", envelope, verdicts[step % len(verdicts)],
                "x" + label, budget, 2**40 * step,
            )
            for step, (budget, envelope) in enumerate(_FLOATS)
        )
        logs.append(EpisodeLog(10**12 * episode, entries, 0.0, INF, entries[-1].budget_after, ()))
    return logs


def test_episode_lines_equal_json_dumps_on_edge_entries():
    logs = _edge_logs()
    expected = [json.dumps(_record(log, e), sort_keys=True) for log in logs for e in log.entries]
    assert runio.episode_json_lines(logs) == expected
    assert len(expected) == len(_LABELS) * len(_FLOATS)


@pytest.mark.parametrize("value", [INF, -INF, NAN, -0.0, 5e-324, 1e16, True, None, 3, "é\x00"])
def test_json_scalar_equals_json_dumps(value):
    assert runio._json_scalar(value) == json.dumps(value)


def test_infinite_budget_run_writes_json_dumps_lines(tmp_path):
    doc = json.loads(bundled_scenario_path("payments").read_text())
    doc["gate"]["initial_budget"] = INF
    scenario = tmp_path / "unbounded.scn.json"
    scenario.write_text(json.dumps(doc))
    assert "Infinity" in scenario.read_text()
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario), "--episodes", "20", "--out", str(out)]) == 0
    lines = (out / runio.EPISODE_LOG_NAME).read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert lines == [json.dumps(r, sort_keys=True) for r in records]
    assert all(r["budget_after"] == INF for r in records)
    logs = runio.read_episode_logs(out, INF)
    assert runio.episode_json_lines(logs) == lines
