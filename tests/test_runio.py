"""Episode-log serialisation: each line is ``json.dumps(record,
sort_keys=True)`` of its entry, on the edge values too; the readers and
writers stream, so their memory stays below the size of the log."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
import re
import shutil
import tracemalloc
from pathlib import Path

import pytest

from tollgate import runio
from tollgate.cli import main
from tollgate.envelope import Envelope
from tollgate.exceptions import RunArtifactError
from tollgate.gate import (
    EpisodeLog,
    Gate,
    GateEntry,
    Verdict,
    audit_budget_guarantee,
    run_episode,
)
from tollgate.scenario import bundled_scenario_path, config_hash, load_scenario, resolve_scenario

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
        logs.append(EpisodeLog(10**12 * episode, entries, 0.0, records))
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
        EpisodeLog(log.episode, tuple(entries[log.episode]), 0.0, ()) for log in logs
    ]
    assert runio.episode_json_lines(rebuilt) == lines


def _summary_reference(logs, budget_initial) -> str:
    """summary.csv as csv.writer writes it, cell by cell, for episodes from
    ``budget_initial``."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(runio._SUMMARY_FIELDS)
    for log in logs:
        charges, prev = [], budget_initial
        for entry in log.entries:
            charges.append(prev - entry.budget_after)
            prev = entry.budget_after
        counts = [sum(e.verdict is v for e in log.entries) for v in Verdict]
        writer.writerow(
            (log.episode, repr(log.entries[-1].budget_after), repr(math.fsum(charges)),
             repr(log.terminal_loss), *counts)
        )
    return out.getvalue()


def _boundary_reference(logs) -> str:
    return "".join(
        json.dumps({"episode": log.episode, **rec}, sort_keys=True) + "\n"
        for log in logs
        for rec in log.boundary_records
    )


def _written(tmp_path: Path, logs, budget_initial) -> dict[str, str]:
    """The text of each run log the writers make of ``logs``, episodes
    from ``budget_initial``."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    paths = (
        runio.write_episode_logs(tmp_path, logs),
        runio.write_summary_csv(tmp_path, logs, budget_initial),
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
                logs.append(EpisodeLog(len(logs), entries, 0.0, boundary_records))
    return logs


def test_writers_encode_twin_paths_apart(tmp_path):
    logs = _twin_logs()
    written = _written(tmp_path, logs, 1.0)
    assert written[runio.EPISODE_LOG_NAME] == "".join(
        json.dumps(_record(log, e), sort_keys=True) + "\n" for log in logs for e in log.entries
    )
    assert written[runio.SUMMARY_NAME] == _summary_reference(logs, 1.0)
    assert written[runio.BOUNDARY_LOG_NAME] == _boundary_reference(logs)
    assert '"budget_after": -0.0' in written[runio.EPISODE_LOG_NAME]
    assert '"envelope_value": 1,' in written[runio.EPISODE_LOG_NAME]
    assert '"boundary_id": "\\u0000", "episode": 0,' in written[runio.BOUNDARY_LOG_NAME]


def test_writers_match_csv_and_json_dumps_on_edge_logs(tmp_path):
    logs = _edge_logs()
    written = _written(tmp_path, logs, INF)
    assert written[runio.SUMMARY_NAME] == _summary_reference(logs, INF)
    assert written[runio.BOUNDARY_LOG_NAME] == _boundary_reference(logs)


@pytest.mark.parametrize("value", [INF, -INF, NAN, -0.0, 5e-324, 1e16, True, None, 3, "é\x00"])
def test_record_lines_equal_json_dumps_on_scalar_values(value, tmp_path):
    record = {"boundary_id": value, "exposure": [value], "version": value}
    logs = [EpisodeLog(3, (), 0.0, (record,))]
    path = runio.write_boundary_log(tmp_path, logs)
    assert path.read_text() == _boundary_reference(logs)


def test_bool_episode_logs_read_back(tmp_path):
    # run_episode logs index(episode), so the three logs of an episode of
    # True name episode 1, which the readers take back
    sc = load_scenario(bundled_scenario_path("payments"))
    log = run_episode(Gate(sc.model, sc.policy, sc.gate), 1, True)
    _written(tmp_path, [log], sc.gate.initial_budget)
    assert list(runio.read_episode_logs(tmp_path, sc.gate.initial_budget)) == [log]
    assert type(log.episode) is int


def test_an_envelope_of_integer_predictions_logs_float_quotes(tmp_path):
    # the log's envelope_value is a float field, so a quote is a float
    # whatever number type its predictor returns, and the run reads back
    sc = load_scenario(bundled_scenario_path("payments"))
    ints = Envelope(kind="exact", predict=lambda t, s, a: 1, inflation=0)
    log = run_episode(Gate(sc.model, sc.policy, sc.gate._replace(envelope=ints)), 1, 0)
    assert all(type(entry.envelope_value) is float for entry in log.entries)
    _written(tmp_path, [log], sc.gate.initial_budget)
    assert list(runio.read_episode_logs(tmp_path, sc.gate.initial_budget)) == [log]


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
    budget = sc.gate.initial_budget
    written = _written(tmp_path / "shared", shared, budget)
    assert written == _written(tmp_path / "unshared", unshared, budget)
    assert written[runio.SUMMARY_NAME] == _summary_reference(shared, budget)
    assert written[runio.BOUNDARY_LOG_NAME] == _boundary_reference(shared)


def _read_logs(run_dir: Path) -> list[EpisodeLog]:
    """The episode logs of a run directory, read from the initial budget
    of its stored scenario."""
    manifest, _ = runio.read_manifest(run_dir)
    budget = manifest["scenario_document"]["gate"]["initial_budget"]
    return list(runio.read_episode_logs(run_dir, budget))


def test_readers_refuse_blank_lines(tmp_path):
    # no writer writes a blank line, so one of any kind is refused wherever
    # it stands, as a line that is not one JSON value
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "30", "--out", str(out)]) == 0
    expected = _read_logs(out)
    assert any(log.boundary_records for log in expected)
    for name in (runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME):
        path = out / name
        written = path.read_bytes()
        lines = written.splitlines(keepends=True)
        for blank, at in itertools.product([b"\n", b"   \n", b"\t \n"], [0, 1, len(lines)]):
            path.write_bytes(b"".join([*lines[:at], blank, *lines[at:]]))
            refused = f"^{re.escape(name)} does not decode \\(line {at + 1}: Expecting value: "
            with pytest.raises(RunArtifactError, match=refused):
                _read_logs(out)
        path.write_bytes(written)
    assert _read_logs(out) == expected


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
def conformal_run(tmp_path_factory):
    """A 40-episode run of payments with a conformal envelope."""
    root = tmp_path_factory.mktemp("conformal")
    doc = json.loads(bundled_scenario_path("payments").read_text())
    doc["envelope"] = {"kind": "conformal", "calibration_episodes": 60, "training_episodes": 30}
    scenario = root / "payments-conformal.scn.json"
    scenario.write_text(json.dumps(doc))
    out = root / "run"
    assert main(["run", "--scenario", str(scenario), "--episodes", "40", "--out", str(out)]) == 0
    return out


_MANIFEST_RUNS = ("payments", "database", "trading", "conformal")


def _manifest_run(name, bundled_run, conformal_run) -> Path:
    return conformal_run if name == "conformal" else bundled_run(name)


@pytest.mark.parametrize("name", _MANIFEST_RUNS)
def test_manifest_is_canonical_around_the_hashed_document(name, bundled_run, conformal_run):
    # the manifest is its content's compact sorted-key encoding, and the
    # document bytes inside it are the bytes its config_hash hashes
    text = (_manifest_run(name, bundled_run, conformal_run) / runio.MANIFEST_NAME).read_bytes()
    manifest = json.loads(text)
    assert text == (json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n").encode()
    key = b'"scenario_document":'
    start = text.index(key) + len(key)
    document, end = json.JSONDecoder().raw_decode(text.decode("ascii"), start)
    assert document == manifest["scenario_document"]
    assert hashlib.sha256(text[start:end]).hexdigest() == manifest["config_hash"]
    assert manifest["config_hash"] == config_hash(resolve_scenario(document))


@pytest.mark.parametrize("name", _MANIFEST_RUNS)
def test_report_refuses_an_indented_manifest(name, bundled_run, conformal_run, tmp_path, capsys):
    # negative control: no writer writes an indented manifest, so one is
    # refused at its first newline, though it holds the same values
    out = _manifest_run(name, bundled_run, conformal_run)
    indented = tmp_path / "indented"
    shutil.copytree(out, indented)
    path = indented / runio.MANIFEST_NAME
    path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["report", "--out", str(indented)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: manifest.json holds b'\\n' at byte 1, where the writer writes b'\"' for its"
        " scenario, seed and episodes\n"
    )
    assert captured.out == ""


@pytest.fixture
def database_run(bundled_run):
    return bundled_run("database")


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
    # what the reader holds beyond the logs it returns is the line it reads,
    # not the file's text, its lines or one decoded record per line
    out = database_run
    size = (out / runio.EPISODE_LOG_NAME).stat().st_size
    logs, retained, peak = _traced_memory(lambda: _read_logs(out))
    assert len(logs) == 5000
    assert peak - retained < size


def test_report_audit_peak_does_not_grow_with_the_run(database_run, tmp_path):
    # the audit folds over the logs as they are read and keeps running
    # totals, so a run ten times longer peaks no higher, within 1 MB
    out = database_run
    short = tmp_path / "run"
    assert main(["run", "--scenario", "database", "--episodes", "500", "--out", str(short)]) == 0
    sc = load_scenario(bundled_scenario_path("database"))
    gate = Gate(sc.model, sc.policy, sc.gate)

    def audit(run_dir):
        logs = runio.read_episode_logs(run_dir, sc.gate.initial_budget)
        return audit_budget_guarantee(logs, gate, 0.0)

    audit(out)  # prices every quoted key before either audit is traced
    short_audit, _, short_peak = _traced_memory(lambda: audit(short))
    long_audit, _, long_peak = _traced_memory(lambda: audit(out))
    assert (short_audit.episodes, long_audit.episodes) == (500, 5000)
    assert long_peak - short_peak < 1 << 20


def test_writing_episode_and_boundary_logs_peaks_below_the_log_size(database_run, tmp_path):
    out = database_run
    logs = _read_logs(out)
    size = (out / runio.EPISODE_LOG_NAME).stat().st_size
    _, _, peak = _traced_memory(
        lambda: (runio.write_episode_logs(tmp_path, logs), runio.write_boundary_log(tmp_path, logs))
    )
    assert peak < size
    for name in (runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


# ---------------------------------------------------------------------------
# the line memo of the readers, and the one line rule behind it


def _read_boundary_records(run_dir: Path):
    """The boundary-log reader of runio.read_episode_logs."""
    path = run_dir / runio.BOUNDARY_LOG_NAME
    return runio._read_lines(path, runio._boundary_record, runio._record_parts)


def _rewritten(run_dir: Path, name: str) -> str:
    """The text ``json.dumps`` writes, with sorted keys, of what the reader of
    the log ``name`` of ``run_dir`` reads from it."""
    if name == runio.EPISODE_LOG_NAME:
        groups = runio.read_episode_records(run_dir)
        logs = (EpisodeLog(ep, entries, 0.0, ()) for ep, entries in groups)
        records = (_record(log, entry) for log in logs for entry in log.entries)
    else:
        records = ({**rec, "episode": ep} for ep, rec in _read_boundary_records(run_dir))
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def test_a_corrupted_copy_of_a_held_line_is_refused(database_run, tmp_path):
    # two lines that differ only in their episode put the line in the memo;
    # a copy of it that is corrupted anywhere but in a canonical episode
    # number is not the writer's line, and is refused
    with (database_run / runio.EPISODE_LOG_NAME).open() as fh:
        first = fh.readline()
    assert first.startswith('{"boundary_version": 1,') and '"episode": 0,' in first

    def copy(episode):
        return first.replace('"episode": 0,', f'"episode": {episode},')

    not_written = "episodes.jsonl holds a line the writer does not write (line 3)"
    corruptions = {
        "verdict": (copy(2).replace('"EXECUTE"', '"MAYBE"'), not_written),
        "leading zero": (
            copy("02"),
            "episodes.jsonl does not decode (line 3: Expecting ',' delimiter: column 81)",
        ),
        "arabic digit": (
            copy("٢"),
            "episodes.jsonl does not decode (line 3: Expecting value: column 80)",
        ),
        "float episode": (copy("2.0"), not_written),
        "escaped key": (copy(2).replace("}\n", ', "\\u0065pisode": "2"}\n'), not_written),
        "second key": (copy(2).replace("}\n", ', "episode": -1}\n'), not_written),
        "truncated": (
            copy(2)[:-30] + "\n",
            "episodes.jsonl does not decode (line 3: Invalid control character at: column 178)",
        ),
    }
    for what, (bad, message) in corruptions.items():
        run_dir = tmp_path / what.replace(" ", "-")
        run_dir.mkdir()
        (run_dir / runio.EPISODE_LOG_NAME).write_text(copy(0) + copy(1) + bad)
        with pytest.raises(RunArtifactError, match=f"^{re.escape(message)}$"):
            list(runio.read_episode_records(run_dir))


# The lines of each log the edit test edits.
_EDIT_LOG_LINES = 32

_DIGITS = "0123456789"
_FOREIGN_DIGITS = ("٠١٢٣٤٥٦٧٨٩",
                   "０１２３４５６７８９")
_NUMBER = re.compile(r'"episode": (\d+)')


def _with_episode(line: str, text: str) -> str:
    """``line`` with the text of its episode number replaced."""
    match = _NUMBER.search(line)
    return line[: match.start(1)] + text + line[match.end(1) :] if match else line


def _episode_text(line: str) -> str:
    match = _NUMBER.search(line)
    return match.group(1) if match else "0"


def _before_last_brace(line: str, text: str) -> str:
    at = line.rfind("}")
    return line[:at] + text + line[at:] if at >= 0 else line + text


# Edits of one line: each takes the random source and the line, and returns
# its replacement, which may hold no line, one, or several.
_LINE_EDITS = {
    "duplicate key, same number": lambda rng, line: line.replace(
        "{", '{"episode": %s, ' % _episode_text(line), 1
    ),
    "duplicate key first": lambda rng, line: line.replace(
        "{", '{"episode": %d, ' % rng.randrange(40), 1
    ),
    "duplicate key last": lambda rng, line: _before_last_brace(
        line, ', "episode": %d' % rng.randrange(40)
    ),
    "escaped key": lambda rng, line: line.replace(
        '"episode"', rng.choice(['"\\u0065pisode"', '"episod\\u0065"', '"ep\\u0069sode"']), 1
    ),
    "escaped duplicate first": lambda rng, line: line.replace(
        "{", '{"\\u0065pisode": %d, ' % rng.randrange(40), 1
    ),
    "escaped duplicate last": lambda rng, line: _before_last_brace(
        line, ', "episod\\u0065": %d' % rng.randrange(40)
    ),
    "non-ASCII digits": lambda rng, line: _with_episode(
        line,
        _episode_text(line).translate(str.maketrans(_DIGITS, rng.choice(_FOREIGN_DIGITS))),
    ),
    "superscript digit": lambda rng, line: _with_episode(line, "²"),
    "mixed digits": lambda rng, line: _with_episode(
        line, _episode_text(line) + rng.choice(_FOREIGN_DIGITS)[rng.randrange(10)]
    ),
    "leading zero": lambda rng, line: _with_episode(line, "0" + _episode_text(line)),
    "minus zero": lambda rng, line: _with_episode(line, "-0"),
    "negative": lambda rng, line: _with_episode(line, "-" + _episode_text(line)),
    "float": lambda rng, line: _with_episode(line, _episode_text(line) + ".0"),
    "exponent": lambda rng, line: _with_episode(
        line, _episode_text(line) + rng.choice(["e0", "E+0", "e-1", "e400"])
    ),
    "other number": lambda rng, line: _with_episode(
        line, str(rng.choice([rng.randrange(40), 10**20 + rng.randrange(3)]))
    ),
    "long number": lambda rng, line: _with_episode(line, "1" * rng.choice([99, 100, 101, 5000])),
    "long number after a bad value": lambda rng, line: _with_episode(line, "1" * 5000).replace(
        ": ", ": x", 1
    ),
    "number as string": lambda rng, line: _with_episode(line, '"%s"' % _episode_text(line)),
    "space after key": lambda rng, line: line.replace(
        '"episode": ', rng.choice(['"episode":  ', '"episode" : ', '"episode":', '"episode":\t']),
        1,
    ),
    "space around line": lambda rng, line: rng.choice([" ", "\t", ""])
    + line[:-1]
    + rng.choice([" ", "\t", "\f", " ", ""])
    + line[-1:],
    "space before comma": lambda rng, line: line.replace(
        ", ", rng.choice([" , ", ",  ", ",\t"]), 1
    ),
    "CRLF": lambda rng, line: line.replace("\n", "\r\n"),
    "carriage return inside": lambda rng, line: _cut(rng, line, "\r"),
    "split in two": lambda rng, line: _cut(rng, line, "\n"),
    "truncated": lambda rng, line: line[: rng.randrange(len(line))] + "\n",
    "deleted character": lambda rng, line: _cut(rng, line, "", 1),
    "inserted character": lambda rng, line: _cut(rng, line, rng.choice('"\\,:{}[] 0-.eN\x00')),
    "no newline": lambda rng, line: line.rstrip("\n"),
    "unknown verdict": lambda rng, line: line.replace('"EXECUTE"', '"MAYBE"', 1),
    "step is not time": lambda rng, line: line.replace('"step": ', '"step": 1', 1),
    "NaN value": lambda rng, line: re.sub(r"(\d+\.\d+)", "NaN", line, count=1),
    "list record": lambda rng, line: "[" + line[:-1] + "]\n",
    "two records": lambda rng, line: line[:-1] + ", " + line,
    "blank": lambda rng, line: rng.choice(["\n", "  \n", "\t\n", "\f\n"]),
}


def _cut(rng, line: str, insert: str, drop: int = 0) -> str:
    at = rng.randrange(len(line))
    return line[:at] + insert + line[at + drop :]


def _edit(rng: random.Random, kind: str, lines: list[str]) -> list[str]:
    """``lines`` with an edit of ``kind``: a line edit on a random line, or
    one of the edits of the whole log below."""
    lines = list(lines)
    if kind == "blank lines":
        blanks = [rng.choice(["\n", " \n", "\t\n"]) for _ in range(rng.randrange(1, 12))]
        at = rng.randrange(len(lines) + 1)
        lines[at:at] = blanks
    elif kind == "CRLF everywhere":
        lines = [line.replace("\n", "\r\n") for line in lines]
    elif kind == "copy with another number, then corrupted":
        i = rng.randrange(len(lines))
        twin = _with_episode(lines[i], str(rng.randrange(40)))
        bad = rng.choice([k for k in _LINE_EDITS if k != "blank"])
        lines[i + 1 : i + 1] = [twin, _LINE_EDITS[bad](rng, twin)]
    elif kind == "edited, then copied with another number":
        i = rng.randrange(len(lines))
        edited = _LINE_EDITS[rng.choice([k for k in _LINE_EDITS if k != "blank"])](rng, lines[i])
        lines[i : i + 1] = [edited, _with_episode(edited, str(rng.randrange(40)))]
    elif kind == "two bad lines":
        first, later = sorted(rng.sample(range(len(lines)), 2))
        for i in (later, first):
            lines[i] = _LINE_EDITS[rng.choice(["truncated", "unknown verdict", "float"])](
                rng, lines[i]
            )
    elif kind == "swapped lines":
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        i = rng.randrange(len(lines))
        lines[i] = _LINE_EDITS[kind](rng, lines[i])
    return lines


_FILE_EDITS = (
    "blank lines",
    "CRLF everywhere",
    "copy with another number, then corrupted",
    "edited, then copied with another number",
    "two bad lines",
    "swapped lines",
)


def test_readers_refuse_every_edit_of_a_log(bundled_run, tmp_path):
    # a log reads back as written, and an edit that changes its bytes is
    # refused, or reads as the records whose lines the edited log holds
    # (another episode number, or two lines swapped), each the writer's
    # line for what was read, which report then refuses by the summary rows
    # and the audit; no edit reads as records the writer would write apart
    rng = random.Random(20261019)
    kinds = [*_LINE_EDITS, *_FILE_EDITS]
    edits = refused = 0
    for scenario in ("payments", "database"):
        for name in (runio.EPISODE_LOG_NAME, runio.BOUNDARY_LOG_NAME):
            with (bundled_run(scenario) / name).open() as fh:
                lines = list(itertools.islice(fh, _EDIT_LOG_LINES))
            run_dir = tmp_path / f"{scenario}-{name}"
            run_dir.mkdir()
            refusal = re.compile(
                f"{re.escape(name)} (does not decode \\(line \\d+: .*\\)"
                "|holds a line the writer does not write \\(line \\d+\\))"
            )
            written = "".join(lines)
            (run_dir / name).write_text(written)
            assert _rewritten(run_dir, name) == written
            for k in range(7 * len(kinds)):
                kind = kinds[k % len(kinds)]
                edited = _edit(rng, kind, lines)
                if rng.random() < 0.25:
                    edited = _edit(rng, rng.choice(kinds), edited)
                data = "".join(edited).encode("utf-8", "surrogatepass")
                (run_dir / name).write_bytes(data)
                edits += 1
                try:
                    text = _rewritten(run_dir, name)
                except RunArtifactError as exc:
                    assert data != written.encode(), (kind, edited)
                    assert refusal.fullmatch(str(exc)), (kind, str(exc))
                    refused += 1
                    continue
                assert text.encode() == data, (kind, edited)
    assert edits >= 1000 and refused > 0.8 * edits
