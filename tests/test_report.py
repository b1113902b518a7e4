"""``report`` judges a run directory through the one budget audit."""

from __future__ import annotations

import copy
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tollgate import runio
from tollgate import scenario as scenario_module
from tollgate.cli import main
from tollgate.gate import Gate, Verdict, run_episode
from tollgate.scenario import BUNDLED_SCENARIOS, bundled_scenario_path, load_scenario


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_read_episode_logs_round_trips_run(name, tmp_path):
    out = tmp_path / name
    assert main(["run", "--scenario", name, "--episodes", "30", "--seed", "7", "--out", str(out)]) == 0
    sc = load_scenario(bundled_scenario_path(name))
    gate = Gate(sc.model, sc.policy, sc.gate)
    written = [run_episode(gate, seed=7, episode=i) for i in range(30)]
    assert list(runio.read_episode_logs(out, sc.gate.initial_budget)) == written


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


def _summary_lines(out) -> list[str]:
    """The lines of a run's summary.csv, each with its own line end."""
    return (out / runio.SUMMARY_NAME).read_bytes().decode().splitlines(keepends=True)


def _write_summary(out, lines):
    (out / runio.SUMMARY_NAME).write_bytes("".join(lines).encode())


def _cut_summary(out):
    _write_summary(out, _summary_lines(out)[:11])


def _drop_last_logged_episode(out):
    path = out / runio.EPISODE_LOG_NAME
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if json.loads(line)["episode"] != 39))


def _split_logged_episode(out):
    # episode 5's lines, split around episode 6's
    path = out / runio.EPISODE_LOG_NAME
    lines = path.read_text().splitlines(keepends=True)
    five, six = ([line for line in lines if json.loads(line)["episode"] == ep] for ep in (5, 6))
    start = lines.index(five[0])
    lines[start : start + len(five) + len(six)] = [five[0], *six, *five[1:]]
    path.write_text("".join(lines))


def _swap_lines(name, i, j):
    def corrupt(out):
        path = out / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[i], lines[j] = lines[j], lines[i]
        path.write_bytes(b"".join(lines))

    return corrupt


def _write_manifest(out, manifest):
    """Write ``manifest`` over the run's manifest as the writer spells one:
    compact, with sorted keys, and a newline."""
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
    (out / runio.MANIFEST_NAME).write_text(text)


def _raise_manifest_count(out):
    manifest = json.loads((out / runio.MANIFEST_NAME).read_text())
    manifest["episodes"] += 1
    _write_manifest(out, manifest)


def _edit_stored_scenario(edit):
    def corrupt(out):
        manifest = json.loads((out / runio.MANIFEST_NAME).read_text())
        edit(manifest["scenario_document"])
        _write_manifest(out, manifest)

    return corrupt


def _zero_every_terminal_loss(doc):
    losses = doc["model"]["terminal_losses"]
    losses.update(dict.fromkeys(losses, 0.0))


def _zero_the_budget(doc):
    doc["gate"]["initial_budget"] = 0.0


def _zero_the_horizon(doc):
    # a document the loader refuses: its hash is checked, and fails, first
    doc["model"]["horizon"] = 0


@pytest.mark.parametrize(
    "corrupt",
    [
        _cut_summary,
        _drop_last_logged_episode,
        _split_logged_episode,
        _swap_lines(runio.BOUNDARY_LOG_NAME, 2, 5),
        _swap_lines(runio.SUMMARY_NAME, 1, 2),
        _raise_manifest_count,
        _edit_stored_scenario(_zero_every_terminal_loss),
        _edit_stored_scenario(_zero_the_budget),
        _edit_stored_scenario(_zero_the_horizon),
    ],
    ids=[
        "summary-cut-to-10-rows",
        "episode-log-missing-one",
        "episode-split-around-another",
        "boundary-records-swapped",
        "summary-rows-swapped",
        "manifest-count-too-high",
        "stored-losses-zeroed",
        "stored-budget-zeroed",
        "stored-horizon-zero",
    ],
)
def test_report_refuses_run_whose_artifacts_disagree_on_episodes(corrupt, tmp_path, capsys):
    # negative control: report audits every logged episode or none, under
    # the scenario its manifest authenticates; a run directory whose
    # episode log, boundary log, summary rows and manifest count disagree
    # on its episodes or their order, or whose stored scenario no longer
    # hashes to its config_hash, is refused with one error line instead of
    # audited
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
    # manifest, where an exact-tier reading (delta 0) would fail the run.
    # Some seeds cover every quote, so the test runs seeds until one does not.
    doc = json.loads(bundled_scenario_path("trading").read_text())
    doc["envelope"] = {
        "kind": "conformal", "delta": 0.1, "calibration_episodes": 200, "training_episodes": 100,
    }
    scenario = tmp_path / "trading-conformal.scn.json"
    scenario.write_text(json.dumps(doc))
    for seed in range(10):
        out = tmp_path / f"run-{seed}"
        run = ["run", "--scenario", str(scenario), "--episodes", "150", "--seed", str(seed)]
        assert main([*run, "--out", str(out)]) == 0
        manifest, _ = runio.read_manifest(out)
        assert manifest["envelope"]["delta"] == 0.1
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.rstrip().endswith("-> PASS")
        covered, quotes = map(int, re.search(r"(\d+)/(\d+) quotes covered", text).groups())
        if covered < quotes:
            break
    else:
        pytest.fail("no seed left a quote uncovered")


def test_exact_tier_report_never_calibrates(monkeypatch, tmp_path, capsys):
    # report rebuilds the run's gate, which calibrates only a conformal
    # envelope; an exact-tier run, as every bench workload is, never does
    doc = json.loads(bundled_scenario_path("payments").read_text())
    doc["envelope"] = {"kind": "conformal", "calibration_episodes": 20, "training_episodes": 10}
    conformal = tmp_path / "payments-conformal.scn.json"
    conformal.write_text(json.dumps(doc))
    exact_run, conformal_run = tmp_path / "exact", tmp_path / "conformal"
    for scenario, out in (("payments", exact_run), (str(conformal), conformal_run)):
        assert main(["run", "--scenario", scenario, "--episodes", "20", "--out", str(out)]) == 0

    def calibrate(*args, **kwargs):
        raise AssertionError("report calibrated")

    monkeypatch.setattr(scenario_module, "calibrate_conformal", calibrate)
    code, text = _report_exit(exact_run, capsys)
    assert code == 0 and text.rstrip().endswith("-> PASS")
    # the patch bites: a conformal run's report calibrates
    with pytest.raises(AssertionError, match="report calibrated"):
        main(["report", "--out", str(conformal_run)])


def test_no_command_loads_numpy_or_scipy(tmp_path):
    # the package has no runtime dependency: an exact-tier run of each
    # bundled scenario samples from the standard library's generator,
    # and its report, a conformal run and its report, calibrate and every
    # verify suite stay in pure Python too
    for name in BUNDLED_SCENARIOS:
        assert load_scenario(bundled_scenario_path(name)).envelope_config["kind"] == "exact"
    doc = json.loads(bundled_scenario_path("payments").read_text())
    doc["envelope"] = {"kind": "conformal", "calibration_episodes": 20, "training_episodes": 10}
    conformal = tmp_path / "payments-conformal.scn.json"
    conformal.write_text(json.dumps(doc))
    out = str(tmp_path / "conformal")
    commands = [
        *(
            ["run", "--scenario", name, "--episodes", "200", "--out", str(tmp_path / name)]
            for name in BUNDLED_SCENARIOS
        ),
        ["report", "--out", str(tmp_path / BUNDLED_SCENARIOS[0])],
        ["run", "--scenario", str(conformal), "--episodes", "200", "--out", out],
        ["report", "--out", out],
        ["calibrate", "--scenario", "trading", "--episodes", "30", "--out", str(tmp_path / "cal")],
        ["verify", "--suite", "all", "--seed", "1"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import json, sys; from tollgate.cli import main; "
        "codes = [main(args) for args in json.loads(sys.argv[1])]; "
        "print(codes, [m for m in ('numpy', 'scipy') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[0] * len(commands)} []"


def _report_exit(out, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = main(["report", "--out", str(out)])
    return code, capsys.readouterr().out


# The line report adds when the logs are not what the run's gate replays.
_ACCOUNTING_FAILS = "accounting          : the logs are not what the gate replays -> FAIL"


def test_report_fails_run_with_a_corrupted_budget_after(tmp_path, capsys):
    # negative control: each charge follows from its entry's verdict, so a
    # budget_after that no charge explains fails the accounting, even where
    # the later entries and the final budget are left as they were
    out = tmp_path / "run"
    assert main(["run", "--scenario", "database", "--episodes", "50", "--out", str(out)]) == 0
    assert _report_exit(out, capsys)[0] == 0
    path = out / runio.EPISODE_LOG_NAME
    first, rest = path.read_text().split("\n", 1)
    record = json.loads(first)
    assert record["verdict"] == "EXECUTE" and record["budget_after"] == 0.5
    record["budget_after"] = 0.0
    path.write_text(json.dumps(record) + "\n" + rest)
    code, text = _report_exit(out, capsys)
    assert code == 1
    assert text.rstrip().endswith(_ACCOUNTING_FAILS)


def test_report_fails_an_episode_cut_short(tmp_path, capsys):
    # negative control: a path holds one entry per time step. The last
    # episode's last step changes neither the budget nor the boundaries, so
    # once its summary row counts one EXECUTE less, only the length of its
    # path tells the logs without it from a run
    out = tmp_path / "run"
    assert main(["run", "--scenario", "database", "--episodes", "50", "--out", str(out)]) == 0
    path = out / runio.EPISODE_LOG_NAME
    *kept, last = path.read_text().splitlines(keepends=True)
    record = json.loads(last)
    assert (record["verdict"], record["envelope_value"]) == ("EXECUTE", 0.0)
    path.write_text("".join(kept))
    header, *rows, row = _summary_lines(out)
    cells, column = row.split(","), header.split(",").index("n_execute")
    cells[column] = str(int(cells[column]) - 1)
    _write_summary(out, [header, *rows, ",".join(cells)])
    code, text = _report_exit(out, capsys)
    assert code == 1
    assert text.rstrip().endswith(_ACCOUNTING_FAILS)


@pytest.mark.parametrize("key", ["state", "proposed"])
def test_report_fails_a_step_off_every_path_of_the_model(key, tmp_path, capsys):
    # negative control: a logged state the model lacks, or a proposal the
    # policy never draws, has no gate step and no true toll, nor has the
    # rest of its path; the audit fails them, and never asks the model or
    # the quoter about them
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "5", "--out", str(out)]) == 0
    _first_log_field(key, "nowhere")(out)
    code, text = _report_exit(out, capsys)
    assert code == 1
    assert "coverage estimate   : 8/10 quotes covered" in text
    assert "budget guarantee    : 1 overrun episode(s)" in text
    assert text.rstrip().endswith(_ACCOUNTING_FAILS)


def test_report_passes_run_at_an_infinite_budget(tmp_path, capsys):
    # an unbounded budget stays infinite after every charge; the replay
    # must not difference infinities into NaN
    doc = json.loads(bundled_scenario_path("payments").read_text())
    doc["gate"]["initial_budget"] = math.inf
    scenario = tmp_path / "payments-unbounded.scn.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario), "--episodes", "20", "--out", str(out)]) == 0
    code, text = _report_exit(out, capsys)
    assert code == 0
    assert "initial budget      : inf" in text
    assert text.rstrip().endswith("-> PASS")


def _deep_chain_document(horizon: int, p: float, loss: float) -> dict:
    # one risky action at t = 0 enters the hit chain with probability p;
    # every later node only has noop, and only the hit leaf loses
    ok = [f"ok{t}" for t in range(1, horizon + 1)]
    hit = [f"hit{t}" for t in range(1, horizon + 1)]
    nodes = [{"time": 0, "state": "start", "actions": {
        "noop": {"kernel": {ok[0]: 1.0}},
        "risky": {"kernel": {ok[0]: 1.0 - p, hit[0]: p}},
    }}]
    policy = [{"time": 0, "state": "start", "probs": {"noop": 0.5, "risky": 0.5}}]
    for chain in (ok, hit):
        for t in range(1, horizon):
            nodes.append({"time": t, "state": chain[t - 1], "actions": {
                "noop": {"kernel": {chain[t]: 1.0}},
            }})
            policy.append({"time": t, "state": chain[t - 1], "probs": {"noop": 1.0}})
    return {
        "schema_version": 1,
        "name": f"chain-{horizon}",
        "seed": 3,
        "model": {
            "horizon": horizon,
            "states": [{"id": s} for s in ["start", *ok, *hit]],
            "initial_state": "start",
            "nodes": nodes,
            "terminal_losses": {ok[-1]: 0.0, hit[-1]: loss},
        },
        "safe_defaults": [{"time": 0, "state": "start", "action": "risky", "default": "noop"}],
        "policy": policy,
        "risk": {"kind": "entropic", "gamma": 1.0},
        "boundaries": [],
        "gate": {"initial_budget": 10.0, "fallback_order": ["block"], "escalation_policy": {}},
        "envelope": {"kind": "exact"},
    }


def test_deep_chain_runs_and_reports(tmp_path, capsys):
    # a valid tree this deep prices without the Python stack growing with
    # the horizon, so neither command meets a RecursionError
    scenario = tmp_path / "chain.scn.json"
    scenario.write_text(json.dumps(_deep_chain_document(1000, p=0.25, loss=2.0)))
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario), "--episodes", "20", "--out", str(out)]) == 0
    code, text = _report_exit(out, capsys)
    assert code == 0
    assert text.rstrip().endswith("-> PASS")
    records = [json.loads(line) for line in (out / runio.EPISODE_LOG_NAME).open()]
    quotes = [rec["envelope_value"] for rec in records if rec["proposed"] == "risky"]
    # the hit chain carries its leaf loss up unchanged, so the toll is the
    # one-step entropic risk of the leaf loss at t = 0
    toll = math.log(0.25 * math.exp(2.0) + 0.75)
    assert quotes and all(q == pytest.approx(toll, rel=1e-12) for q in quotes)
    assert {rec["envelope_value"] for rec in records if rec["proposed"] == "noop"} == {0.0}


def test_report_passes_a_path_whose_leaves_write_their_equal_losses_apart(tmp_path, capsys):
    # risky ends in a leaf of loss 0.0 or one of loss -0.0: equal values
    # that the summary writes apart, so the rows of one path differ in
    # their loss cell, and each is the writer's row for its own text
    scenario = tmp_path / "signed-zero.scn.json"
    scenario.write_text(json.dumps(_deep_chain_document(1, p=0.5, loss=-0.0)))
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario), "--episodes", "40", "--out", str(out)]) == 0
    # one log line per episode, at horizon 1
    records = (out / runio.EPISODE_LOG_NAME).read_text().splitlines()
    risky = {
        row.split(",")[3]
        for row, record in zip(_summary_lines(out)[1:], records)
        if json.loads(record)["proposed"] == "risky"
    }
    assert risky == {"0.0", "-0.0"}
    code, text = _report_exit(out, capsys)
    assert code == 0 and text.rstrip().endswith("-> PASS")


def _summary_episode_not_a_number(out):
    lines = _summary_lines(out)
    lines[1] = "x" + lines[1][lines[1].index(","):]
    _write_summary(out, lines)


def _summary_final_budget_not_a_number(out):
    header, first, *rest = _summary_lines(out)
    cells = first.split(",")
    cells[header.split(",").index("b_final")] = "abc"
    _write_summary(out, [header, ",".join(cells), *rest])


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
    lines = _summary_lines(out)
    lines[2] = lines[2].split(",", 1)[0] + "\r\n"
    _write_summary(out, lines)


def _summary_column_renamed(out):
    lines = _summary_lines(out)
    lines[0] = lines[0].replace("terminal_loss", "loss")
    _write_summary(out, lines)


def _boundary_record_a_list(out):
    path = out / runio.BOUNDARY_LOG_NAME
    path.write_text("[0]\n" + path.read_text())


def _manifest(change):
    def corrupt(out):
        _write_manifest(out, change(json.loads((out / runio.MANIFEST_NAME).read_text())))

    return corrupt


def _manifest_field(key, value):
    return _manifest(lambda manifest: {**manifest, key: value})


def _manifest_without(key):
    return _manifest(lambda manifest: {k: v for k, v in manifest.items() if k != key})


def _byte_refused(at: int, held: str, written: str) -> str:
    """The refusal of a 5-episode payments run's manifest that holds
    ``held`` at byte ``at``, where the writer writes ``written``."""
    return (
        f"manifest.json holds {held} at byte {at}, where the writer writes {written} for its"
        " scenario, seed and episodes"
    )


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            _summary_episode_not_a_number,
            "summary.csv holds a cell that does not convert "
            "(invalid literal for int() with base 10: 'x') (line 2)",
        ),
        (
            _summary_final_budget_not_a_number,
            "summary.csv holds the row '0,abc,7.697823422919827,0.0,2,0,0,0,0\\r\\n', where the"
            " logs of episode 0 give '0,0.3021765770801732,7.697823422919827,0.0,2,0,0,0,0\\r\\n'",
        ),
        *(
            (corrupt, "episodes.jsonl holds a line the writer does not write (line 1)")
            for corrupt in (
                _logged_episode_a_string,
                _first_log_field("envelope_value", "abc"),
                _first_log_field("budget_after", None),
                _first_log_field("step", 1.5),
                _first_log_field("step", 5),
                _first_log_field("time", "0"),
                _first_log_field("time", math.inf),
                _first_log_field("boundary_version", True),
                _first_log_field("state", ["s"]),
                _first_log_field("proposed", {}),
                _first_log_field("executed", 7),
                _first_log_field("verdict", "MAYBE"),
                _first_log_field("verdict", ["EXECUTE"]),
                _first_log_record(lambda record: {k: v for k, v in record.items() if k != "step"}),
                _first_log_record(lambda record: [0, 1]),
            )
        ),
        (_summary_row_cut_short, "summary.csv does not decode (line 3: 1 cell(s), not 9)"),
        (
            _summary_column_renamed,
            "summary.csv does not decode (line 1: header 'episode,b_final,charged_sum,loss,"
            "n_execute,n_downgrade,n_escalate_approved,n_escalate_denied,n_block\\r\\n' is not"
            " the writer's)",
        ),
        (
            _boundary_record_a_list,
            "boundaries.jsonl holds a line the writer does not write (line 1)",
        ),
        (_manifest(lambda manifest: [manifest]), "manifest.json is not a JSON object"),
        (_manifest_without("scenario_name"), _byte_refused(5121, "b'e'", "b'c'")),
        *(
            (_manifest_without(key), f"manifest.json has no {key!r}")
            for key in ("config_hash", "seed", "episodes", "scenario_document")
        ),
        (_manifest_without("envelope"), _byte_refused(187, "b'p'", "b'n'")),
        (_manifest_without("artifacts"), _byte_refused(2, "b'c'", "b'a'")),
        (_manifest_field("scenario_name", 3), _byte_refused(5135, "b'3'", "b'\"'")),
        (
            _manifest_field("config_hash", None),
            "manifest.json holds config_hash None, not a string",
        ),
        *(
            (
                _manifest_field("seed", seed),
                f"manifest.json holds seed {seed!r}, not a non-negative integer",
            )
            for seed in (-1, True)
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
        (_manifest_field("envelope", [{"kind": "exact"}]), _byte_refused(196, "b'['", "b'{'")),
        (_manifest_field("artifacts", []), _byte_refused(13, "b'['", "b'{'")),
        (_manifest_field("scenario_name", "trading"), _byte_refused(5136, "b't'", "b'p'")),
        (
            _manifest(lambda m: {**m, "artifacts": {**m["artifacts"], "summary": "other.csv"}}),
            _byte_refused(90, "b'o'", "b's'"),
        ),
        (_manifest_field("notes", 1), _byte_refused(227, "b'n'", "b's'")),
        (_manifest_field("envelope", {}), _byte_refused(197, "b'}'", "b'\"'")),
        *(
            (_manifest_field("envelope", {"kind": kind}), _byte_refused(205, held, "b'e'"))
            for kind, held in (("fast", "b'f'"), ("conformal", "b'c'"))
        ),
        *(
            (
                _manifest_field("envelope", {"kind": "conformal", "delta": delta}),
                _byte_refused(198, "b'd'", "b'k'"),
            )
            for delta in ("0.1", 1.5, -0.2)
        ),
    ],
    ids=[
        "summary-episode-x", "summary-b-final-abc", "log-episode-string",
        "log-envelope-value-abc", "log-budget-after-null", "log-step-float", "log-step-not-time",
        "log-time-string", "log-time-infinite",
        "log-boundary-version-bool", "log-state-list", "log-proposed-object",
        "log-executed-int", "log-verdict-unknown", "log-verdict-list", "log-step-missing",
        "log-record-list", "summary-row-short", "summary-column-missing", "boundary-record-list",
        "manifest-list",
        *(
            f"manifest-without-{key}"
            for key in (
                "scenario_name", "config_hash", "seed", "episodes", "scenario_document",
                "envelope", "artifacts",
            )
        ),
        "manifest-scenario-name-int", "manifest-config-hash-null", "manifest-seed-negative",
        "manifest-seed-bool", "manifest-episodes-string",
        "manifest-episodes-bool", "manifest-episodes-negative", "manifest-document-list",
        "manifest-envelope-list", "manifest-artifacts-list", "manifest-scenario-name-other",
        "manifest-summary-other", "manifest-extra-key", "manifest-envelope-without-kind",
        "manifest-envelope-kind-fast",
        "manifest-conformal-without-delta", "manifest-delta-string", "manifest-delta-1.5",
        "manifest-delta-negative",
    ],
)
def test_report_refuses_unreadable_artifact_cells(corrupt, message, tmp_path, capsys):
    # a cell that does not convert, a log line that is not the writer's, a
    # manifest field that report reads before it rebuilds the run's gate and
    # that is of the wrong JSON type, or a manifest that is not the one the
    # writer writes for that gate, is a coded run-artifact error with exit
    # 1, not a traceback; each edited manifest is written in the writer's
    # spelling, so each reaches the rule it is named for
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "5", "--out", str(out)]) == 0
    corrupt(out)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# A JSON array nested past any recursion limit the decoder allows.
_TOO_DEEP = "[" * 100_000 + "]" * 100_000


def _appended(name, data):
    def corrupt(out):
        with (out / name).open("ab") as fh:
            fh.write(data)

    return corrupt


def _with_first_value(name, value):
    # the file's first object given one more key, which holds ``value``
    def corrupt(out):
        path = out / name
        path.write_text(path.read_text().replace("{", '{"x":' + value + ",", 1))

    return corrupt


def _truncated(name):
    # the file cut in the middle of its last line, which keeps its line end
    def corrupt(out):
        path = out / name
        text = path.read_text()
        start = text.rstrip("\n").rfind("\n") + 1
        path.write_text(text[: (start + len(text)) // 2] + "\n")

    return corrupt


@pytest.mark.parametrize(
    "corrupt, name",
    [
        (_appended(runio.EPISODE_LOG_NAME, b"\xff\n"), runio.EPISODE_LOG_NAME),
        (_appended(runio.SUMMARY_NAME, b"\xff\r\n"), runio.SUMMARY_NAME),
        (_appended(runio.MANIFEST_NAME, b"\xff"), runio.MANIFEST_NAME),
        (_appended(runio.EPISODE_LOG_NAME, f"{_TOO_DEEP}\n".encode()), runio.EPISODE_LOG_NAME),
        (_with_first_value(runio.MANIFEST_NAME, _TOO_DEEP), runio.MANIFEST_NAME),
        (_truncated(runio.MANIFEST_NAME), runio.MANIFEST_NAME),
        (_truncated(runio.EPISODE_LOG_NAME), runio.EPISODE_LOG_NAME),
        (_with_first_value(runio.MANIFEST_NAME, "1" * 5000), runio.MANIFEST_NAME),
        (_with_first_value(runio.EPISODE_LOG_NAME, "1" * 5000), runio.EPISODE_LOG_NAME),
        (_appended(runio.SUMMARY_NAME, b'"' + b"x" * 200_000 + b'"\r\n'), runio.SUMMARY_NAME),
    ],
    ids=["log-not-utf-8", "summary-not-utf-8", "manifest-not-utf-8", "log-line-too-deep",
         "manifest-value-too-deep", "manifest-truncated", "log-line-truncated",
         "manifest-number-too-long", "log-number-too-long", "summary-cell-too-long"],
)
def test_report_refuses_undecodable_artifact(corrupt, name, tmp_path, capsys):
    # bytes that are not UTF-8, JSON or CSV, JSON nested past the decoder's
    # recursion limit, an integer past int's digit limit, or a CSV cell past
    # csv's field limit, are one error line naming the artifact, not a
    # traceback
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "5", "--out", str(out)]) == 0
    corrupt(out)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} does not decode (")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "name", [runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME, runio.SUMMARY_NAME]
)
def test_report_names_the_line_that_is_not_utf_8(name, bundled_run, tmp_path, capsys):
    # a text-mode read decodes a chunk at a time, many lines ahead of the
    # one it yields; the refusal names the line that holds the byte, and
    # the byte's place in that line, not in the chunk
    out = tmp_path / "run"
    shutil.copytree(bundled_run("database"), out)
    path = out / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[999] = lines[999][:3] + b"\xff" + lines[999][3:]
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {name} does not decode (line 1000: 'utf-8' codec can't decode byte 0xff"
        " in position 3: invalid start byte)\n"
    )
    assert captured.out == ""


def _two_records_on_one_line(lines):
    lines[1:3] = [lines[1][:-1] + ", " + lines[2]]


def _record_split_at_a_comma(lines):
    lines[1:2] = lines[1].replace(", ", "\n", 1).splitlines(keepends=True)


@pytest.mark.parametrize("name", [runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME])
@pytest.mark.parametrize(
    "edit",
    [_two_records_on_one_line, _record_split_at_a_comma],
    ids=["two-records-on-one-line", "record-split-at-a-comma"],
)
def test_report_refuses_log_line_that_is_not_one_record(edit, name, tmp_path, capsys):
    # negative control: each log line is one JSON value. Two records on one
    # line, or one record broken across two lines, would decode as JSON
    # array items, but not as lines; either is one error line that names
    # the file and the line, not an audit
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "5", "--out", str(out)]) == 0
    path = out / name
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} does not decode (line 2: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def _changed(rng, value, strings):
    """A value of the same JSON kind as ``value`` that differs from it by
    value: a nearby number, a list with one element more, one less or one
    changed, or another of ``strings`` or a new string."""
    if type(value) is int:
        candidates = [value + 1, value - 1, value + 7]
    elif type(value) is float:
        candidates = [value + 0.25, value - 1e-9, 3.0 * value, -value - 1.0]
    elif type(value) is list:
        i = rng.randrange(len(value))
        candidates = [value + [0.0], value[:-1], [*value[:i], value[i] + 0.5, *value[i + 1:]]]
    else:
        candidates = sorted(strings - {value}) + [value + "x"]
    rng.shuffle(candidates)
    return next(c for c in candidates if c != value)


def _log_edits(rng, out, name, count):
    """``count`` seeded edits of one field of one line of the log ``name``
    of the run ``out``: each the file's new text, and a label."""
    lines = (out / name).read_text().splitlines()
    records = [json.loads(line) for line in lines]
    keys = sorted(records[0])
    strings = {key: {r[key] for r in records if type(r[key]) is str} for key in keys}
    strings["verdict"] = {v.value for v in Verdict}
    for _ in range(count):
        i, key = rng.randrange(len(records)), rng.choice(keys)
        value = _changed(rng, records[i][key], strings[key])
        line = json.dumps({**records[i], key: value}, sort_keys=True)
        text = "\n".join([*lines[:i], line, *lines[i + 1:]]) + "\n"
        yield text, f"{name} line {i + 1} {key}={value!r}"


def _manifest_edits(rng, out, count):
    """``count`` seeded edits of the manifest's ``seed`` or of one field of
    its ``envelope``, as in :func:`_log_edits`."""
    manifest = json.loads((out / runio.MANIFEST_NAME).read_text())
    fields = [("seed",), *(("envelope", key) for key in sorted(manifest["envelope"]))]
    for _ in range(count):
        path = rng.choice(fields)
        edited = copy.deepcopy(manifest)
        *parents, key = path
        target = edited
        for parent in parents:
            target = target[parent]
        target[key] = _changed(rng, target[key], {"exact", "conformal"})
        text = json.dumps(edited, sort_keys=True, separators=(",", ":")) + "\n"
        yield text, f"{'.'.join(path)}={target[key]!r}"


def _passed(edits, capsys) -> list[str]:
    """The labels of the ``(run_dir, name, text, label)`` edits that
    ``report`` passes, each written over the artifact ``name`` of its run
    and then undone. An edit that is refused is one ``error:`` line, or an
    audit whose last line ends in ``-> FAIL``."""
    passed = []
    for out, name, text, label in edits:
        path = out / name
        original = path.read_bytes()
        path.write_bytes(text.encode())
        capsys.readouterr()
        code = main(["report", "--out", str(out)])
        captured = capsys.readouterr()
        path.write_bytes(original)
        if code == 0:
            passed.append(label)
        elif captured.out:
            # an audit that fails says why: coverage or overruns end the
            # guarantee line in FAIL, a replay that differs adds its line
            assert captured.out.rstrip().endswith("-> FAIL"), label
        else:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, label
    return passed


def test_report_refuses_every_seeded_single_field_edit(tmp_path, capsys):
    # negative control: report replays each logged path through the run's
    # own gate, rebuilt from the stored document and seed, so an edit of any
    # one field of an episode-log or boundary-log record, or of a conformal
    # run's seed or envelope, is refused or fails the audit
    doc = json.loads(bundled_scenario_path("payments").read_text())
    doc["envelope"] = {"kind": "conformal", "calibration_episodes": 20, "training_episodes": 10}
    conformal = tmp_path / "payments-conformal.scn.json"
    conformal.write_text(json.dumps(doc))
    rng = random.Random(20261020)
    edits = []
    for scenario in ("payments", "database", str(conformal)):
        out = tmp_path / f"run-{len(edits)}"
        assert main(["run", "--scenario", scenario, "--episodes", "30", "--out", str(out)]) == 0
        if scenario == str(conformal):
            edits += [(out, runio.MANIFEST_NAME, *e) for e in _manifest_edits(rng, out, 48)]
            continue
        for name in (runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME):
            edits += [(out, name, *e) for e in _log_edits(rng, out, name, 90)]
    assert len(edits) >= 400
    passed = _passed(edits, capsys)
    assert not passed, f"{len(passed)} of {len(edits)} edits passed: {passed[:5]}"


# Printable ASCII and the line ends: the bytes a single-byte edit writes.
_PRINTABLE = "".join(map(chr, range(32, 127))) + "\n\r\t"

# JSON whitespace and a digit: bytes whose insertion between two tokens, or
# after a float's last digit, keeps every value.
_VALUE_KEEPING = " \t\r\n0"


def _byte_edits(rng, out, name, count, alphabet=_PRINTABLE, skipped=lambda edited: False):
    """``count`` seeded single-byte edits of the file ``name`` of the run
    ``out``, each a substitution, insertion or deletion of one byte of
    ``alphabet``, as in :func:`_log_edits`. Edits that leave the file as it
    was, or that ``skipped`` names, are not made."""
    text = (out / name).read_text()
    made = 0
    while made < count:
        at, byte = rng.randrange(len(text)), rng.choice(alphabet)
        kind, edited = rng.choice([
            (f"{text[at]!r} to {byte!r}", text[:at] + byte + text[at + 1:]),
            (f"{byte!r} inserted", text[:at] + byte + text[at:]),
            (f"{text[at]!r} deleted", text[:at] + text[at + 1:]),
        ])
        if edited != text and not skipped(edited):
            made += 1
            yield edited, f"{name} byte {at}: {kind}"


def _hand_edits(out):
    """Edits of a run's logs that keep every value but not the writer's
    text, one that logs an infinite time, and the sign flips of a logged
    zero: each ``(name, text, label)``."""
    names = (runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME)
    texts = {name: (out / name).read_text() for name in names}
    log, boundaries = (texts[name] for name in names)
    first, rest = log.split("\n", 1)
    record = json.loads(first)
    items = list(record.items())
    edits = {
        "an extra key": json.dumps({**record, "x": 1}, sort_keys=True),
        "two keys swapped": json.dumps(dict([items[1], items[0], *items[2:]])),
        "a float written as an integer": re.sub(r": (\d+)\.0,", r": \1,", first, count=1),
        "a state spelled with an escape": re.sub(
            r'"state": "(.)', lambda m: '"state": "\\u%04x' % ord(m.group(1)), first, count=1
        ),
        "an infinite time": re.sub(r'"time": \d+', '"time": Infinity', first, count=1),
    }
    for label, line in edits.items():
        assert line != first, label
        yield runio.EPISODE_LOG_NAME, f"{line}\n{rest}", label
    exposure = re.sub(r"\[(\d+)\.0\]", r"[\1]", boundaries, count=1)
    assert exposure != boundaries
    yield runio.BOUNDARY_LOG_NAME, exposure, "an exposure written as an integer"
    for name, text in texts.items():
        yield name, text.replace("\n", "\r\n", 1), f"{name} CRLF line end"
        yield name, text + "\n\n", f"{name} blank lines appended"
        yield name, text[:-1], f"{name} last line without a newline"
    # 0.0 and -0.0 are equal, and each is its own writer's spelling
    zero = '"envelope_value": 0.0,'
    first_zero, last_zero = log.index(zero), log.rindex(zero)
    assert log.rindex("\n", 0, -1) > first_zero
    for at, where in ((first_zero, "first"), (last_zero, "last")):
        edited = log[:at] + zero.replace("0.0", "-0.0") + log[at + len(zero):]
        yield runio.EPISODE_LOG_NAME, edited, f"the {where} zero quote signed"
    header, row, *rows = _summary_lines(out)
    cells = row.split(",")
    assert cells[3] == "0.0"
    cells[3] = "-0.0"
    yield runio.SUMMARY_NAME, "".join([header, ",".join(cells), *rows]), "a zero loss signed"


# The seed of an exact-tier run's manifest: the audit replays the logged
# paths, not the draws that chose them, so no check reads it but its type.
_SEED = re.compile(r'"seed":[0-9]+')


def test_report_refuses_every_seeded_byte_edit(tmp_path, capsys):
    # negative control: each log line must be, byte for byte, the line the
    # writer writes for the record it decodes to, and the manifest the one
    # the writer writes for the rebuilt gate, so an edit of one byte, a
    # respelled value, key or line end, or a blank line is refused; the
    # audit compares the replay with the logs by spelling as well as by
    # value, so a zero whose sign flips is refused too. An exact-tier
    # run's seed has only its type checked, so the generator makes no edit
    # of the payments manifest that changes its seed alone
    doc = json.loads(bundled_scenario_path("payments").read_text())
    doc["envelope"] = {"kind": "conformal", "calibration_episodes": 20, "training_episodes": 10}
    conformal = tmp_path / "payments-conformal.scn.json"
    conformal.write_text(json.dumps(doc))
    rng = random.Random(20261022)
    edits = []
    for scenario in ("payments", "database", str(conformal)):
        out = tmp_path / f"run-{len(edits)}"
        run = ["run", "--scenario", scenario, "--episodes", "30", "--seed", "1", "--out", str(out)]
        assert main(run) == 0
        assert _report_exit(out, capsys)[0] == 0
        if scenario != "database":
            manifest = (out / runio.MANIFEST_NAME).read_text()
            exact = scenario == "payments"

            def seed_only(edited):
                return exact and _SEED.sub("", edited) == _SEED.sub("", manifest)

            edits += [
                (out, runio.MANIFEST_NAME, *e)
                for alphabet in (_PRINTABLE, _VALUE_KEEPING)
                for e in _byte_edits(rng, out, runio.MANIFEST_NAME, 30, alphabet, seed_only)
            ]
        if scenario != str(conformal):
            for name in (runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME):
                edits += [(out, name, *e) for e in _byte_edits(rng, out, name, 110)]
            edits += [(out, name, text, label) for name, text, label in _hand_edits(out)]
    assert len(edits) == 2 * 2 * 30 + 4 * 110 + 2 * 15
    passed = _passed(edits, capsys)
    assert not passed, f"{len(passed)} of {len(edits)} edits passed: {passed[:5]}"


def _dumped(manifest: dict, **rules) -> bytes:
    """``manifest`` written by ``json.dumps`` with ``rules``, and a newline."""
    return (json.dumps(manifest, **rules) + "\n").encode()


def _escaped_hash(data: bytes) -> bytes:
    at = data.index(b'"config_hash":"') + len(b'"config_hash":"')
    return b"%s\\u%04x%s" % (data[:at], data[at], data[at + 1:])


# A 30-episode payments run's manifest spelled in twelve other ways that
# keep every value, by label.
_RESPELLINGS = {
    "indented": lambda data: _dumped(json.loads(data), sort_keys=True, indent=2),
    "spaced": lambda data: _dumped(json.loads(data), sort_keys=True),
    "keys-reversed": lambda data: _dumped(
        dict(sorted(json.loads(data).items(), reverse=True)), separators=(",", ":")
    ),
    "episodes-twice": lambda data: data.replace(b'"episodes":30', b'"episodes":31,"episodes":30'),
    "budget-8.00": lambda data: data.replace(b'"initial_budget":8.0', b'"initial_budget":8.00'),
    "budget-8e0": lambda data: data.replace(b'"initial_budget":8.0', b'"initial_budget":8e0'),
    "kind-twice": lambda data: data.replace(b'"kind":"exact"', b'"kind":"exact","kind":"exact"'),
    "hash-escaped": _escaped_hash,
    "leading-space": lambda data: b" " + data,
    "trailing-space": lambda data: data[:-1] + b" \n",
    "no-final-newline": lambda data: data[:-1],
    "crlf": lambda data: data[:-1] + b"\r\n",
}


@pytest.mark.parametrize("label", list(_RESPELLINGS))
def test_report_refuses_a_respelled_manifest(label, tmp_path, capsys):
    # negative control: the manifest must be the writer's bytes, so each of
    # these spellings of the same values is one error line
    out = tmp_path / "run"
    run = ["run", "--scenario", "payments", "--episodes", "30", "--seed", "1", "--out", str(out)]
    assert main(run) == 0
    path = out / runio.MANIFEST_NAME
    data = path.read_bytes()
    edited = _RESPELLINGS[label](data)
    assert edited != data and json.loads(edited) == json.loads(data)
    path.write_bytes(edited)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    refused = r"error: manifest\.json holds .* at byte \d+, where the writer writes .*\n"
    assert re.fullmatch(refused, captured.err)
    assert captured.out == ""


def _summary_edits(rng, out, per_column):
    """``per_column`` seeded edits of each summary column of the run
    ``out``, each of one cell of one row, as in :func:`_log_edits`: a cell
    changed by value, written as the writer writes its kind of value."""
    header, *rows = _summary_lines(out)
    names = header.rstrip("\r\n").split(",")
    for column, name in enumerate(names):
        for _ in range(per_column):
            i = rng.randrange(len(rows))
            cells = rows[i].rstrip("\r\n").split(",")
            kind = int if name == "episode" or name.startswith("n_") else float
            cells[column] = repr(_changed(rng, kind(cells[column]), set()))
            lines = [header, *rows[:i], ",".join(cells) + "\r\n", *rows[i + 1:]]
            yield "".join(lines), f"summary row {i + 1} {name}={cells[column]}"


def _summary_restructured(out):
    """Edits of a run's summary that keep every value but not the writer's
    text: a float written with one more digit, an episode with a leading
    zero, a cell appended to a row, and two columns swapped along with
    their header cells."""
    header, first, *rows = _summary_lines(out)
    cells = first.split(",")
    cells[1] += "0"
    yield "".join([header, ",".join(cells), *rows]), f"b_final spelled {cells[1]}"
    yield "".join([header, "0" + first, *rows]), f"episode spelled 0{cells[0]}"
    yield "".join([header, first.replace("\r\n", ",0\r\n"), *rows]), "a cell appended"

    def swapped(line):
        cells = line.split(",")
        cells[1], cells[2] = cells[2], cells[1]
        return ",".join(cells)

    yield "".join(map(swapped, [header, first, *rows])), "b_final and charged_sum swapped"


def test_report_refuses_every_seeded_summary_edit(tmp_path, capsys):
    # negative control: every summary cell but the episode and terminal loss
    # follows from the episode's log lines and the initial budget, so the
    # reader renders each row as the writer does and refuses a row that
    # differs; an edited terminal loss that no leaf of its path has fails
    # the audit. An edit onto the loss of another leaf the path's last step
    # reaches would pass, since no artifact records the leaf; none of these
    # edits lands on one
    rng = random.Random(20261021)
    edits = []
    for scenario in ("payments", "database"):
        out = tmp_path / scenario
        assert main(["run", "--scenario", scenario, "--episodes", "30", "--out", str(out)]) == 0
        assert _report_exit(out, capsys)[0] == 0
        edits += [(out, runio.SUMMARY_NAME, *e) for e in _summary_edits(rng, out, 12)]
        if scenario == "payments":
            assert _summary_lines(out)[1].split(",")[1] == "0.3021765770801732"
            edits += [(out, runio.SUMMARY_NAME, *e) for e in _summary_restructured(out)]
    assert len(edits) == 2 * 9 * 12 + 4
    passed = _passed(edits, capsys)
    assert not passed, f"{len(passed)} of {len(edits)} edits passed: {passed[:5]}"


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_report_fails_a_terminal_loss_no_reachable_leaf_has(name, tmp_path, capsys):
    # negative control: the first episode's terminal loss raised by 0.25,
    # the loss of no leaf its path's last executed step reaches; the row is
    # still the one the writer would write for that loss, so only the audit
    # can fail it
    out = tmp_path / "run"
    run = ["run", "--scenario", name, "--episodes", "30", "--seed", "1", "--out", str(out)]
    assert main(run) == 0
    header, first, *rows = _summary_lines(out)
    cells = first.split(",")
    cells[3] = repr(float(cells[3]) + 0.25)
    _write_summary(out, [header, ",".join(cells), *rows])
    code, text = _report_exit(out, capsys)
    assert code == 1
    assert text.rstrip().endswith(_ACCOUNTING_FAILS)
