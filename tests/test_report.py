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
from tollgate.gate import Gate, run_episode
from tollgate.scenario import BUNDLED_SCENARIOS, bundled_scenario_path, load_scenario


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_read_episode_logs_round_trips_run(name, tmp_path):
    out = tmp_path / name
    assert main(["run", "--scenario", name, "--episodes", "30", "--seed", "7", "--out", str(out)]) == 0
    sc = load_scenario(bundled_scenario_path(name))
    gate = Gate(sc.model, sc.policy, sc.gate)
    written = [run_episode(gate, seed=7, episode=i) for i in range(30)]
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


def _cut_summary(out):
    path = out / runio.SUMMARY_NAME
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:11]))


def _drop_last_logged_episode(out):
    path = out / runio.EPISODE_LOG_NAME
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if json.loads(line)["episode"] != 39))


def _raise_manifest_count(out):
    path = out / runio.MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest["episodes"] += 1
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _edit_stored_scenario(edit):
    def corrupt(out):
        path = out / runio.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        edit(manifest["scenario_document"])
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    return corrupt


def _zero_every_terminal_loss(doc):
    losses = doc["model"]["terminal_losses"]
    losses.update(dict.fromkeys(losses, 0.0))


def _zero_the_budget(doc):
    doc["gate"]["initial_budget"] = 0.0


@pytest.mark.parametrize(
    "corrupt",
    [
        _cut_summary,
        _drop_last_logged_episode,
        _raise_manifest_count,
        _edit_stored_scenario(_zero_every_terminal_loss),
        _edit_stored_scenario(_zero_the_budget),
    ],
    ids=[
        "summary-cut-to-10-rows",
        "episode-log-missing-one",
        "manifest-count-too-high",
        "stored-losses-zeroed",
        "stored-budget-zeroed",
    ],
)
def test_report_refuses_run_whose_artifacts_disagree_on_episodes(corrupt, tmp_path, capsys):
    # negative control: report audits every logged episode or none, under
    # the scenario its manifest authenticates; a run directory whose
    # episode log, summary rows and manifest count disagree, or whose
    # stored scenario no longer hashes to its config_hash, is refused with
    # one error line instead of audited
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "40", "--out", str(out)]) == 0
    corrupt(out)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert "PASS" not in captured.out


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


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_run_leaves_numpy_and_scipy_unloaded(name, tmp_path):
    # an exact-tier run samples from the pure-Python copy of numpy's stream
    assert load_scenario(bundled_scenario_path(name)).envelope_config["kind"] == "exact"
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; from tollgate.cli import main; "
        "code = main(['run', '--scenario', sys.argv[1], '--episodes', '200', '--out', sys.argv[2]]); "
        "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, name, str(tmp_path / name)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False False"


def _summary_episode_not_a_number(out):
    path = out / runio.SUMMARY_NAME
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "x" + lines[1][lines[1].index(","):]
    path.write_text("".join(lines))


def _summary_final_budget_not_a_number(out):
    path = out / runio.SUMMARY_NAME
    header, first, *rest = path.read_text().splitlines(keepends=True)
    cells = first.split(",")
    cells[header.split(",").index("b_final")] = "abc"
    path.write_text("".join([header, ",".join(cells), *rest]))


def _logged_episode_a_string(out):
    path = out / runio.EPISODE_LOG_NAME
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["episode"] = str(record["episode"])
    lines[0] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def _first_log_record(change):
    def corrupt(out):
        path = out / runio.EPISODE_LOG_NAME
        first, rest = path.read_text().split("\n", 1)
        path.write_text(json.dumps(change(json.loads(first))) + "\n" + rest)

    return corrupt


def _first_log_field(key, value):
    return _first_log_record(lambda record: {**record, key: value})


def _summary_row_cut_short(out):
    path = out / runio.SUMMARY_NAME
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].split(",", 1)[0] + "\n"
    path.write_text("".join(lines))


def _summary_column_renamed(out):
    path = out / runio.SUMMARY_NAME
    path.write_text(path.read_text().replace("terminal_loss", "loss", 1))


def _boundary_record_a_list(out):
    path = out / runio.BOUNDARY_LOG_NAME
    path.write_text("[0]\n" + path.read_text())


def _manifest(change):
    def corrupt(out):
        path = out / runio.MANIFEST_NAME
        path.write_text(json.dumps(change(json.loads(path.read_text()))))

    return corrupt


def _manifest_field(key, value):
    return _manifest(lambda manifest: {**manifest, key: value})


def _manifest_without(key):
    return _manifest(lambda manifest: {k: v for k, v in manifest.items() if k != key})


_MANIFEST_KEYS = ("scenario_name", "config_hash", "episodes", "scenario_document", "envelope")


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            _summary_episode_not_a_number,
            "summary.csv holds a cell that does not convert "
            "(invalid literal for int() with base 10: 'x')",
        ),
        (
            _summary_final_budget_not_a_number,
            "summary.csv holds a cell that does not convert "
            "(could not convert string to float: 'abc')",
        ),
        (_logged_episode_a_string, "episodes.jsonl logs a non-integer episode '0'"),
        (
            _first_log_field("envelope_value", "abc"),
            "episodes.jsonl logs a non-numeric envelope_value 'abc'",
        ),
        (
            _first_log_field("budget_after", None),
            "episodes.jsonl logs a non-numeric budget_after None",
        ),
        (_first_log_field("step", 1.5), "episodes.jsonl logs a non-integer step 1.5"),
        (_first_log_field("time", "0"), "episodes.jsonl logs a non-integer time '0'"),
        (
            _first_log_field("boundary_version", True),
            "episodes.jsonl logs a non-integer boundary_version True",
        ),
        (_first_log_field("state", ["s"]), "episodes.jsonl logs a non-string state ['s']"),
        (_first_log_field("proposed", {}), "episodes.jsonl logs a non-string proposed {}"),
        (_first_log_field("executed", 7), "episodes.jsonl logs a non-string executed 7"),
        (_first_log_field("verdict", "MAYBE"), "episodes.jsonl logs an unknown verdict 'MAYBE'"),
        (
            _first_log_field("verdict", ["EXECUTE"]),
            "episodes.jsonl logs a non-string verdict ['EXECUTE']",
        ),
        (
            _first_log_record(lambda record: {k: v for k, v in record.items() if k != "step"}),
            "episodes.jsonl logs a record without 'step'",
        ),
        (
            _first_log_record(lambda record: [0, 1]),
            "episodes.jsonl logs a non-object record [0, 1]",
        ),
        (_summary_row_cut_short, "summary.csv has a row shorter than its header (line 3)"),
        (_summary_column_renamed, "summary.csv has no 'terminal_loss' column"),
        (_boundary_record_a_list, "boundaries.jsonl logs a record without an integer episode"),
        (_manifest(lambda manifest: [manifest]), "manifest.json is not a JSON object"),
        *(
            (_manifest_without(key), f"manifest.json has no {key!r}")
            for key in _MANIFEST_KEYS
        ),
        (_manifest_field("scenario_name", 3), "manifest.json holds scenario_name 3, not a string"),
        (
            _manifest_field("config_hash", None),
            "manifest.json holds config_hash None, not a string",
        ),
        (
            _manifest_field("episodes", "5"),
            "manifest.json holds episodes '5', not a non-negative integer",
        ),
        (
            _manifest_field("episodes", True),
            "manifest.json holds episodes True, not a non-negative integer",
        ),
        (
            _manifest_field("episodes", -1),
            "manifest.json holds episodes -1, not a non-negative integer",
        ),
        (
            _manifest_field("scenario_document", []),
            "manifest.json holds scenario_document [], not an object",
        ),
        (
            _manifest_field("envelope", [{"kind": "exact"}]),
            "manifest.json holds envelope [{'kind': 'exact'}], not an object",
        ),
        (_manifest_field("envelope", {}), "manifest.json has no 'envelope.kind'"),
        (
            _manifest_field("envelope", {"kind": "fast"}),
            "manifest.json holds envelope.kind 'fast', not 'exact' or 'conformal'",
        ),
        (
            _manifest_field("envelope", {"kind": "conformal"}),
            "manifest.json has no 'envelope.delta'",
        ),
        *(
            (
                _manifest_field("envelope", {"kind": "conformal", "delta": delta}),
                f"manifest.json holds envelope.delta {delta!r}, not a number in (0, 1)",
            )
            for delta in ("0.1", 1.5, -0.2)
        ),
    ],
    ids=[
        "summary-episode-x", "summary-b-final-abc", "log-episode-string",
        "log-envelope-value-abc", "log-budget-after-null", "log-step-float", "log-time-string",
        "log-boundary-version-bool", "log-state-list", "log-proposed-object",
        "log-executed-int", "log-verdict-unknown", "log-verdict-list", "log-step-missing",
        "log-record-list", "summary-row-short", "summary-column-missing", "boundary-record-list",
        "manifest-list", *(f"manifest-without-{key}" for key in _MANIFEST_KEYS),
        "manifest-scenario-name-int", "manifest-config-hash-null", "manifest-episodes-string",
        "manifest-episodes-bool", "manifest-episodes-negative", "manifest-document-list",
        "manifest-envelope-list", "manifest-envelope-without-kind", "manifest-envelope-kind-fast",
        "manifest-conformal-without-delta", "manifest-delta-string", "manifest-delta-1.5",
        "manifest-delta-negative",
    ],
)
def test_report_refuses_unreadable_artifact_cells(corrupt, message, tmp_path, capsys):
    # a record or cell that does not convert, or a record field of the wrong
    # JSON type, is a coded run-artifact error with exit 1, not a traceback
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "5", "--out", str(out)]) == 0
    corrupt(out)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
