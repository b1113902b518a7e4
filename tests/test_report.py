"""``report`` judges a run directory through the one budget audit."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tollgate import runio
from tollgate.cli import main
from tollgate.gate import run_episode
from tollgate.scenario import (
    BUNDLED_SCENARIOS,
    build_gate_config,
    bundled_scenario_path,
    load_scenario,
    make_exact_envelope,
)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_read_episode_logs_round_trips_run(name, tmp_path):
    out = tmp_path / name
    assert main(["run", "--scenario", name, "--episodes", "30", "--seed", "7", "--out", str(out)]) == 0
    sc = load_scenario(bundled_scenario_path(name))
    env = make_exact_envelope(sc)
    cfg = build_gate_config(sc, env, exact_quoter=env)
    written = [run_episode(sc.model, sc.policy, cfg, seed=7, episode=i) for i in range(30)]
    assert runio.read_episode_logs(out, sc.gate.initial_budget) == written


def test_report_fails_exact_run_with_under_quoted_action(tmp_path, capsys):
    # negative control: one logged quote below its exact toll is a coverage
    # violation, which an exact-tier run must not pass
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "25", "--out", str(out)]) == 0
    path = out / runio.EPISODE_LOG_NAME
    records = [json.loads(line) for line in path.read_text().splitlines()]
    victim = max(records, key=lambda r: r["envelope_value"])
    assert victim["envelope_value"] > 0.0
    victim["envelope_value"] = 0.0
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert f"{len(records) - 1}/{len(records)} quotes covered" in text
    assert text.rstrip().endswith("-> FAIL")


def test_report_takes_delta_from_conformal_manifest(tmp_path, capsys):
    # a conformal run may leave some quotes uncovered; the audit allows
    # delta plus three sigmas of violating episodes, delta read from the
    # manifest, where an exact-tier reading (delta 0) would fail the run
    doc = json.loads(bundled_scenario_path("trading").read_text())
    doc["envelope"] = {
        "kind": "conformal", "delta": 0.1, "calibration_episodes": 200, "training_episodes": 100,
    }
    scenario = tmp_path / "trading-conformal.scn.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario), "--episodes", "150", "--out", str(out)]) == 0
    assert runio.read_manifest(out)["envelope"]["delta"] == 0.1
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    covered, quotes = map(int, re.search(r"(\d+)/(\d+) quotes covered", text).groups())
    assert covered < quotes
    assert text.rstrip().endswith("-> PASS")


def test_report_leaves_numpy_and_scipy_unloaded(tmp_path):
    # report is pure Python: auditing a run directory needs no sampling
    out = tmp_path / "run"
    assert main(["run", "--scenario", "database", "--episodes", "20", "--out", str(out)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; from tollgate.cli import main; code = main(['report', '--out', sys.argv[1]]); "
        "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "-> PASS" in done.stdout
    assert done.stdout.splitlines()[-1] == "0 False False"
