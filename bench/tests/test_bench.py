"""Tests of the benchmark's own parts: the ladder generator, span
arithmetic, the traced child and the oracle spot-check.

Run from the repository root: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import metrics
import spans
from ladder import ACTIONS, SUPPORT, ladder_document, write_ladder
from tollgate.cli import main as cli_main
from tollgate.scenario import resolve_scenario

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.mark.parametrize("seed", [0, 1, 7, 20260811])
def test_ladder_resolves_for_several_seeds(seed):
    doc = ladder_document(horizon=4, width=12, seed=seed)
    sc = resolve_scenario(doc)
    assert sc.model.horizon == 4
    assert sc.risk_spec.kind == "entropic"
    assert len(sc.boundaries) == 1
    for t, s in sc.model.all_nodes():
        assert sc.model.actions(t, s) == ACTIONS
        for a in ACTIONS:
            assert len(sc.model.kernel(t, s, a)) == SUPPORT
        for a in ("risk_a", "risk_b"):
            assert sc.safe_defaults.default_for(t, s, a) == "safe"
            assert (t, s, a) in sc.exposure
        assert sc.safe_defaults.default_for(t, s, "safe") == "safe"


def test_ladder_is_a_function_of_its_seed():
    assert ladder_document(3, 10, 5) == ladder_document(3, 10, 5)
    assert ladder_document(3, 10, 5) != ladder_document(3, 10, 6)


def test_default_ladder_size_resolves():
    sc = resolve_scenario(ladder_document(seed=3))
    assert len(list(sc.model.all_nodes())) == 1 + 5 * 80


def test_self_time_on_hand_made_tree():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: the root loses [1, 6] once
        ("a.1", 2.0, 3.0, 1),
        ("b.1", 5.0, 7.0, 2),  # runs past its parent: only [5, 6] counts
        ("leaf", 8.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 2.0, 1.0, 2.0, 1.0])


def test_layer_metrics_from_hand_made_dump():
    names = ["envelope.query.exact", "gate.run_episode", "gate.step", "tolls.counterfactual_toll"]
    dump = {
        "names": names,
        "spans": [
            [1, 0.0, 10.0, -1],  # episode
            [2, 1.0, 5.0, 0],  # step 1
            [0, 1.5, 4.5, 1],  # exact query, priced cold
            [3, 2.0, 4.0, 2],
            [2, 6.0, 7.0, 0],  # step 2
            [0, 6.2, 6.4, 4],  # exact query, cache hit
        ],
        "calls": {
            "gate.run_episode": 1,
            "gate.step": 2,
            "envelope.query.exact": 2,
            "tolls.counterfactual_toll": 1,
        },
        "counters": {"verdict.EXECUTE": 2},
    }
    m = spans.layer_metrics([dump])
    assert m["gate.sampling_self_s"] == pytest.approx(5.0)
    assert m["gate.step_self_s"] == pytest.approx(1.0 + 0.8)
    assert m["envelope.query_s"] == pytest.approx(1.0 + 0.2)
    assert m["tolls.counterfactual_toll_s"] == pytest.approx(2.0)
    assert m["envelope.exact_hit_ratio"] == pytest.approx(0.5)
    assert m["gate.decision_us.p50"] == pytest.approx(1e6)
    assert m["gate.decision_us.p99"] == pytest.approx(4e6)
    assert m["gate.verdict.EXECUTE"] == 2


def test_traced_child_records_every_layer_of_a_run(tmp_path):
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(spans_file),
         "run", "--scenario", "payments", "--episodes", "20", "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    dump = json.loads(spans_file.read_text())
    m = spans.layer_metrics([dump])
    lines = (tmp_path / "run" / "episodes.jsonl").read_text().splitlines()
    assert m["base.episodes"] == 20
    assert m["gate.step_calls"] == len(lines)
    assert sum(m["gate.verdict." + v] for v in spans.VERDICTS) == len(lines)
    assert m["runio.bytes_written"] == sum(
        (tmp_path / "run" / name).stat().st_size for name in checks.ARTIFACTS
    )
    assert m["tolls.counterfactual_toll_calls"] == m["base.priced_keys"] > 0
    assert m["risk.evaluate_calls"] == 2 * m["tolls.counterfactual_toll_calls"]
    assert dump["import_s"] > 0


def _ladder_run(tmp_path: Path) -> Path:
    scenario = write_ladder(tmp_path / "ladder.scn.json", horizon=3, width=8, seed=4)
    run_dir = tmp_path / "run"
    assert cli_main(["run", "--scenario", str(scenario), "--episodes", "40", "--out", str(run_dir)]) == 0
    return run_dir


def test_oracle_spot_check_accepts_a_clean_run(tmp_path):
    run_dir = _ladder_run(tmp_path)
    problems, checked, eligible = checks.oracle_spot_check(run_dir, None, seed=0)
    assert problems == []
    assert checked == eligible > 0


def test_corrupted_envelope_value_trips_the_oracle_spot_check(tmp_path):
    run_dir = _ladder_run(tmp_path)
    path = run_dir / "episodes.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    victim = next(
        r for r in records if r["verdict"] == "EXECUTE" and r["proposed"].startswith("risk")
    )
    victim["envelope_value"] += 1e-6
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    problems, _, _ = checks.oracle_spot_check(run_dir, None, seed=0)
    assert len(problems) == 1
    assert repr(victim["state"]) in problems[0]


def test_report_and_verify_output_checks():
    good = "coverage estimate   : 5/5 quotes covered (1.0000)\nbudget guarantee    : 0 -> PASS\n"
    assert checks.check_report_output(good) == []
    assert checks.check_report_output(good.replace("5/5", "4/5"))
    assert checks.check_report_output(good.replace("PASS", "FAIL"))
    report = {"results": [{"suite": "iap", "properties": [{"name": "p", "passed": True}]}]}
    assert checks.check_verify_output(json.dumps(report)) == []
    report["results"][0]["properties"][0]["passed"] = False
    assert checks.check_verify_output(json.dumps(report)) == ["property failed: iap:p"]


def test_benchmark_json_lists_the_result_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        listed = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
        assert listed == [(m.name, m.unit, m.better) for m in metrics.result_metrics(trace)]
    assert [w["name"] for w in doc["workloads"]] == ["bundled", "ladder", "verify"]
