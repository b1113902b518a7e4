"""Episode-log serialisation: each line is ``json.dumps(record,
sort_keys=True)`` of its entry, on the edge values too; the readers and
writers stream, so their memory stays below the size of the log."""

from __future__ import annotations

import csv
import io
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from tollgate import runio
from tollgate.cli import main
from tollgate.gate import (
    EpisodeLog,
    Gate,
    GateEntry,
    Verdict,
    audit_budget_guarantee,
    run_episode,
)
from tollgate.scenario import bundled_scenario_path, load_scenario

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

# "episode" and the three labels after it would be cut in the wrong place by
# a split of a boundary line at anything short of its whole "episode": 0
# key, and the last two by a writer that encoded a path's records as one
# list and cut it into lines at }, { or }, {".
_LABELS = [
    "plain",
    "café ☃ \U0001f600",
    'say "hi"',
    "back\\slash",
    "ctl\x00\x01\x1f\x7f\n\t\r\b\f",
    "\ud800 lone surrogate",
    "",
    "episode",
    '{"episode": 0, "a": 1}',
    '\\"episode": 0',
    '\x00"épisode": 0',
    "}, {",
    '}, {"',
]


def _record(log: EpisodeLog, entry: GateEntry) -> dict:
    return {
        "episode": log.episode,
        "step": entry.time,
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
                step, label, label[::-1] + "p", envelope, verdicts[step % len(verdicts)],
                "x" + label, budget, 2**40 * step,
            )
            for step, (budget, envelope) in enumerate(_FLOATS)
        )
        records = (
            {"boundary_id": label, "version": 1, "exposure": [INF, -0.0], "outside_state": "s"},
            {"boundary_id": "b", "version": 2, "exposure": [], "outside_state": label},
        )
        logs.append(
            EpisodeLog(10**12 * episode, entries, 0.0, INF, entries[-1].budget_after, records)
        )
    return logs


def test_episode_lines_equal_json_dumps_on_edge_entries():
    logs = _edge_logs()
    expected = [json.dumps(_record(log, e), sort_keys=True) for log in logs for e in log.entries]
    assert runio.episode_json_lines(logs) == expected
    assert len(expected) == len(_LABELS) * len(_FLOATS)


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
    logs = list(runio.read_episode_logs(out, INF))
    assert runio.episode_json_lines(logs) == lines


def test_written_episode_log_reads_back_on_edge_entries(tmp_path):
    logs = _edge_logs()
    lines = runio.episode_json_lines(logs)
    path = runio.write_episode_logs(tmp_path, logs)
    assert path.read_text() == "".join(line + "\n" for line in lines)
    entries = dict(runio.read_episode_records(tmp_path))
    assert [log.episode for log in logs] == list(entries)
    rebuilt = [
        EpisodeLog(log.episode, tuple(entries[log.episode]), 0.0, INF, 0.0, ()) for log in logs
    ]
    assert runio.episode_json_lines(rebuilt) == lines


def _summary_reference(logs) -> str:
    """summary.csv as csv.writer writes it, cell by cell."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(runio._SUMMARY_FIELDS)
    for log in logs:
        writer.writerow(
            (log.episode, repr(log.budget_final), repr(log.charged_total),
             repr(log.terminal_loss), *log.decision_counts().values())
        )
    return out.getvalue()


def _boundary_reference(logs) -> str:
    return "".join(
        json.dumps({"episode": log.episode, **rec}, sort_keys=True) + "\n"
        for log in logs
        for rec in log.boundary_records
    )


def _written(tmp_path: Path, logs) -> dict[str, str]:
    """The text of each run log the writers make of ``logs``."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    paths = (
        runio.write_episode_logs(tmp_path, logs),
        runio.write_summary_csv(tmp_path, logs),
        runio.write_boundary_log(tmp_path, logs),
    )
    return {path.name: path.read_bytes().decode() for path in paths}


def _twin_logs() -> list[EpisodeLog]:
    """Logs whose entries and records are separate objects, equal by value
    and alike in hash, that encode differently: a signed zero, an int
    against a float, and a NUL label, boundary id and outside state."""
    entry = GateEntry(0, "\x00", "\x00", 1.0, Verdict.EXECUTE, "\x00", 0.0, 1)
    twins = [
        ((entry,), (entry._replace(budget_after=-0.0),)),
        ((entry,), (entry._replace(envelope_value=1),)),
    ]
    rec = {"boundary_id": "\x00", "version": 1, "exposure": [0.0], "outside_state": "\x00"}
    records = [
        ({**rec},), ({**rec, "exposure": [-0.0]},), ({**rec, "version": 1.0},),
        ({"a": 1, "z": 2}, {"a": 1}, {"z": 2}, {}),
    ]
    logs = []
    for a, b in twins:
        for entries in (a, b, a, b):
            for boundary_records in records:
                logs.append(
                    EpisodeLog(len(logs), entries, 0.0, 1.0, entries[-1].budget_after,
                               boundary_records)
                )
    return logs


def test_writers_encode_twin_paths_apart(tmp_path):
    logs = _twin_logs()
    written = _written(tmp_path, logs)
    assert written[runio.EPISODE_LOG_NAME] == "".join(
        json.dumps(_record(log, e), sort_keys=True) + "\n" for log in logs for e in log.entries
    )
    assert written[runio.SUMMARY_NAME] == _summary_reference(logs)
    assert written[runio.BOUNDARY_LOG_NAME] == _boundary_reference(logs)
    assert '"budget_after": -0.0' in written[runio.EPISODE_LOG_NAME]
    assert '"envelope_value": 1,' in written[runio.EPISODE_LOG_NAME]
    assert '"boundary_id": "\\u0000", "episode": 0,' in written[runio.BOUNDARY_LOG_NAME]


def test_writers_match_csv_and_json_dumps_on_edge_logs(tmp_path):
    logs = _edge_logs()
    written = _written(tmp_path, logs)
    assert written[runio.SUMMARY_NAME] == _summary_reference(logs)
    assert written[runio.BOUNDARY_LOG_NAME] == _boundary_reference(logs)


@pytest.mark.parametrize("value", [INF, -INF, NAN, -0.0, 5e-324, 1e16, True, None, 3, "é\x00"])
def test_record_lines_equal_json_dumps_on_scalar_values(value, tmp_path):
    record = {"boundary_id": value, "exposure": [value], "version": value}
    logs = [EpisodeLog(3, (), 0.0, 1.0, 1.0, (record,))]
    path = runio.write_boundary_log(tmp_path, logs)
    assert path.read_text() == _boundary_reference(logs)


def test_bool_episode_logs_read_back(tmp_path):
    # run_episode logs index(episode), so the three logs of an episode of
    # True name episode 1, which the readers take back
    sc = load_scenario(bundled_scenario_path("payments"))
    log = run_episode(Gate(sc.model, sc.policy, sc.gate), 1, True)
    _written(tmp_path, [log])
    assert list(runio.read_episode_logs(tmp_path, sc.gate.initial_budget)) == [log]
    assert type(log.episode) is int


def test_shared_and_unshared_paths_write_the_same_bytes(tmp_path):
    sc = load_scenario(bundled_scenario_path("payments"))
    gate = Gate(sc.model, sc.policy, sc.gate)
    shared = [run_episode(gate, 1, ep) for ep in range(200)]
    assert len({id(log.entries) for log in shared}) < 20
    unshared = [
        log._replace(
            entries=tuple(list(log.entries)),
            boundary_records=tuple(dict(rec) for rec in log.boundary_records),
        )
        for log in shared
    ]
    assert len({id(log.entries) for log in unshared}) == 200
    written = _written(tmp_path / "shared", shared)
    assert written == _written(tmp_path / "unshared", unshared)
    assert written[runio.SUMMARY_NAME] == _summary_reference(shared)
    assert written[runio.BOUNDARY_LOG_NAME] == _boundary_reference(shared)


def test_readers_skip_blank_lines_across_batches(tmp_path):
    # a stretch of blank lines longer than one batch must not end the read
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "30", "--out", str(out)]) == 0
    budget = load_scenario(bundled_scenario_path("payments")).gate.initial_budget
    expected = list(runio.read_episode_logs(out, budget))
    assert any(log.boundary_records for log in expected)
    blanks = ["\n", "   \n", "\t \n"] * runio._BATCH_LINES
    for name in (runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME):
        path = out / name
        first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text("".join(["\n", first, *blanks, *rest, " \n"]))
    assert list(runio.read_episode_logs(out, budget)) == expected


def test_zero_episode_run_writes_empty_logs_and_a_header_only_summary(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--scenario", "database", "--episodes", "0", "--out", str(out)]) == 0
    assert (out / runio.EPISODE_LOG_NAME).read_bytes() == b""
    assert (out / runio.BOUNDARY_LOG_NAME).read_bytes() == b""
    assert (out / runio.SUMMARY_NAME).read_bytes() == (
        b"episode,b_final,charged_sum,terminal_loss,n_execute,n_downgrade,"
        b"n_escalate_approved,n_escalate_denied,n_block\r\n"
    )
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert "zero episodes, nothing to audit" in capsys.readouterr().out


def test_report_reads_no_whole_log_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(["run", "--scenario", "database", "--episodes", "50", "--out", str(out)]) == 0
    read_text = Path.read_text

    def refuse_logs(path, *args, **kwargs):
        if path.name in (runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME):
            raise AssertionError(f"whole-file read of {path.name}")
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse_logs)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("-> PASS")


@pytest.fixture(scope="module")
def database_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("database") / "run"
    assert main(["run", "--scenario", "database", "--episodes", "5000", "--out", str(out)]) == 0
    return out, load_scenario(bundled_scenario_path("database")).gate.initial_budget


def _traced_memory(fn):
    """``fn()``, with the memory it still holds on return and its peak."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def test_reading_episode_logs_holds_less_than_the_log_in_flight(database_run):
    # what the reader holds beyond the logs it returns is a bounded batch,
    # not the file's text, its lines or one decoded record per line
    out, budget = database_run
    size = (out / runio.EPISODE_LOG_NAME).stat().st_size
    logs, retained, peak = _traced_memory(lambda: list(runio.read_episode_logs(out, budget)))
    assert len(logs) == 5000
    assert peak - retained < size


def test_report_audit_peak_does_not_grow_with_the_run(database_run, tmp_path):
    # the audit folds over the logs as they are read and keeps running
    # totals, so a run ten times longer peaks no higher, within 1 MB
    out, budget = database_run
    short = tmp_path / "run"
    assert main(["run", "--scenario", "database", "--episodes", "500", "--out", str(short)]) == 0
    truth = load_scenario(bundled_scenario_path("database")).gate.exact_quoter.predict

    def audit(run_dir):
        return audit_budget_guarantee(runio.read_episode_logs(run_dir, budget), truth, 0.0)

    audit(out)  # prices every quoted key before either audit is traced
    short_audit, _, short_peak = _traced_memory(lambda: audit(short))
    long_audit, _, long_peak = _traced_memory(lambda: audit(out))
    assert (short_audit.episodes, long_audit.episodes) == (500, 5000)
    assert long_peak - short_peak < 1 << 20


def test_writing_episode_and_boundary_logs_peaks_below_the_log_size(database_run, tmp_path):
    out, budget = database_run
    logs = list(runio.read_episode_logs(out, budget))
    size = (out / runio.EPISODE_LOG_NAME).stat().st_size
    _, _, peak = _traced_memory(
        lambda: (runio.write_episode_logs(tmp_path, logs), runio.write_boundary_log(tmp_path, logs))
    )
    assert peak < size
    for name in (runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
