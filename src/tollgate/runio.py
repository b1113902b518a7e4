"""Run artifact serialization: episode logs, summaries, manifests.

Episode logs are line-delimited JSON, one object per gate step, with sorted
keys so identical runs serialize byte for byte. Summaries are plain CSV.
The manifest embeds the resolved scenario document plus its hash, which
makes a run directory self-describing for later audits: given the initial
budget of that document, :func:`read_episode_logs` rebuilds the episode logs.

The episode-log, boundary-log and summary readers and writers stream. A
writer writes one episode at a time to an open file; a reader decodes a
bounded batch of lines at a time. Neither holds a file's whole text, its
list of lines or one decoded record per line.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .exceptions import RunArtifactError
from .gate import EpisodeLog, GateEntry, Verdict

EPISODE_LOG_NAME = "episodes.jsonl"
SUMMARY_NAME = "summary.csv"
MANIFEST_NAME = "manifest.json"
BOUNDARY_LOG_NAME = "boundaries.jsonl"

# One count column per verdict, in declaration order, which is the order of
# EpisodeLog.decision_counts.
_SUMMARY_FIELDS = ("episode", "b_final", "charged_sum", "terminal_loss") + tuple(
    "n_" + v.value.lower() for v in Verdict
)

# The JSON types each key of an episode-log line may hold: the episode, then
# the GateEntry fields in their order.
_INT, _STR, _NUMBER = (int,), (str,), (int, float)
_RECORD_KINDS = dict(
    zip(
        ("episode",) + GateEntry._fields,
        (_INT, _INT, _INT, _STR, _STR, _NUMBER, _STR, _STR, _NUMBER, _INT),
    )
)
_KIND_NAMES = {_INT: "non-integer", _STR: "non-string", _NUMBER: "non-numeric"}

# The keys of one episode-log line in sorted order, and the line they make
# with json.dumps's default separators, in two halves on either side of
# the episode number.
_ENTRY_KEYS = tuple(sorted(_RECORD_KINDS))
_EPISODE_AT = _ENTRY_KEYS.index("episode")
_ENTRY_HEAD = "{" + "".join(f'"{key}": %s, ' for key in _ENTRY_KEYS[:_EPISODE_AT]) + '"episode": '
_ENTRY_TAIL = "".join(f', "{key}": %s' for key in _ENTRY_KEYS[_EPISODE_AT + 1 :]) + "}\n"

# Lines decoded per batch by _read_jsonl.
_BATCH_LINES = 1024

# Paths one writer call holds encoded. The logs one Gate samples share the
# entries and boundary records of each path they walk, so a writer encodes
# a path once while it holds it; a run with more distinct paths than this
# encodes some again, and logs that share nothing are encoded one by one.
_PATHS_HELD = 64


def _json_scalar(value) -> str:
    """``json.dumps(value)``, done directly for plain strings, finite floats
    and ints, which is what a gate entry holds."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    return json.dumps(value)


def _by_identity(encode: Callable) -> Callable:
    """``encode``, memoised on the identities of its arguments for the last
    ``_PATHS_HELD`` distinct argument lists. The memo holds the arguments,
    so no id is reused while it is held. Equal arguments that are distinct
    objects are encoded apart: ``0.0 == -0.0`` and ``1 == 1.0``, but they
    encode differently."""
    memo: dict[tuple[int, ...], tuple] = {}

    def encoded(*args):
        key = tuple(map(id, args))
        held = memo.get(key)
        if held is None:
            if len(memo) >= _PATHS_HELD:
                del memo[next(iter(memo))]
            held = memo[key] = (args, encode(*args))
        return held[1]

    return encoded


def _entry_parts(entries: tuple[GateEntry, ...]) -> list[str]:
    """The episode-log lines of ``entries``, split where the episode number
    goes: joined by an encoded episode number, they are that episode's
    lines."""
    enc = _json_scalar
    parts = [""]
    for e in entries:
        parts[-1] += _ENTRY_HEAD % (
            enc(e.boundary_version), enc(e.budget_after), enc(e.envelope_value)
        )
        parts.append(
            _ENTRY_TAIL % (
                enc(e.executed), enc(e.proposed), enc(e.state), enc(e.step), enc(e.time),
                enc(e.verdict.value),
            )
        )
    return parts


def _boundary_parts(records: tuple[dict, ...]) -> list[str]:
    """The boundary-log lines of ``records``, ``json.dumps({"episode":
    episode, **record}, sort_keys=True)`` each, split where the episode
    number goes, as :func:`_entry_parts` splits entry lines."""
    parts = [""]
    for rec in records:
        if "episode" in rec:  # the record's own episode wins
            parts[-1] += json.dumps(rec, sort_keys=True) + "\n"
            continue
        head = json.dumps({k: v for k, v in rec.items() if k < "episode"}, sort_keys=True)
        tail = json.dumps({k: v for k, v in rec.items() if k > "episode"}, sort_keys=True)
        parts[-1] += head[:-1] + ('"episode": ' if head == "{}" else ', "episode": ')
        parts.append(("}" if tail == "{}" else ", " + tail[1:]) + "\n")
    return parts


def _episode_texts(paths: Iterable[tuple[int, object]], parts_of) -> Iterator[str]:
    """Each ``(episode, path)``'s lines: ``parts_of(path)`` joined by the
    encoded episode number, each path encoded once while it is held."""
    parts_of = _by_identity(parts_of)
    for episode, path in paths:
        yield _json_scalar(episode).join(parts_of(path))


def episode_json_lines(logs: Sequence[EpisodeLog]) -> list[str]:
    """One line per gate entry, each equal to ``json.dumps(record,
    sort_keys=True)`` of the entry's record."""
    texts = _episode_texts(((log.episode, log.entries) for log in logs), _entry_parts)
    # every line ends in a newline, and json.dumps escapes any in a value
    return [line for text in texts for line in text.split("\n")[:-1]]


def write_episode_logs(out_dir: Path, logs: Sequence[EpisodeLog]) -> Path:
    path = out_dir / EPISODE_LOG_NAME
    with path.open("w") as fh:
        fh.writelines(_episode_texts(((log.episode, log.entries) for log in logs), _entry_parts))
    return path


def write_boundary_log(out_dir: Path, logs: Sequence[EpisodeLog]) -> Path:
    path = out_dir / BOUNDARY_LOG_NAME
    with path.open("w") as fh:
        fh.writelines(
            _episode_texts(((log.episode, log.boundary_records) for log in logs), _boundary_parts)
        )
    return path


def _summary_tail(entries, budget_initial, budget_final, terminal_loss) -> str:
    """A summary row after its episode cell: the cells csv.writer writes,
    none of which needs quoting, and the row's terminator."""
    log = EpisodeLog(0, entries, terminal_loss, budget_initial, budget_final, ())
    cells = (repr(budget_final), repr(log.charged_total), repr(terminal_loss)) + tuple(
        map(str, log.decision_counts().values())
    )
    return "," + ",".join(cells) + "\r\n"


def write_summary_csv(out_dir: Path, logs: Sequence[EpisodeLog]) -> Path:
    path = out_dir / SUMMARY_NAME
    tail_of = _by_identity(_summary_tail)
    with path.open("w", newline="") as fh:
        fh.write(",".join(_SUMMARY_FIELDS) + "\r\n")
        for log in logs:
            tail = tail_of(log.entries, log.budget_initial, log.budget_final, log.terminal_loss)
            fh.write(str(log.episode) + tail)
    return path


def write_manifest(
    out_dir: Path,
    scenario_name: str,
    scenario_document: dict,
    scenario_hash: str,
    seed: int,
    episodes: int,
    envelope: dict,
) -> Path:
    """Write the manifest; ``envelope`` records the tier that quoted the run
    (``kind``, plus the conformal fit's ``delta`` and calibration)."""
    path = out_dir / MANIFEST_NAME
    manifest = {
        "scenario_name": scenario_name,
        "config_hash": scenario_hash,
        "seed": seed,
        "episodes": episodes,
        "artifacts": {
            "episode_log": EPISODE_LOG_NAME,
            "summary": SUMMARY_NAME,
            "boundary_log": BOUNDARY_LOG_NAME,
        },
        "scenario_document": scenario_document,
        "envelope": envelope,
    }
    # json.dump writes the chunks json.dumps would join; an indented dumps
    # of the 6x80 ladder's document peaks at 5.8 MB, the dump at 0.08 MB
    with path.open("w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# The manifest fields report reads: key, rule, and what the rule asks for.
_MANIFEST_FIELDS = (
    ("scenario_name", lambda v: type(v) is str, "a string"),
    ("config_hash", lambda v: type(v) is str, "a string"),
    ("episodes", lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    ("scenario_document", lambda v: type(v) is dict, "an object"),
    ("envelope", lambda v: type(v) is dict, "an object"),
)


def _manifest_field(record: dict, key: str, ok: Callable[[object], bool], what: str, path=""):
    """``record[key]``; raises :class:`RunArtifactError`, naming ``path +
    key``, when it is missing or not ``ok``."""
    if key not in record:
        raise RunArtifactError(f"{MANIFEST_NAME} has no {path + key!r}")
    value = record[key]
    if not ok(value):
        raise RunArtifactError(f"{MANIFEST_NAME} holds {path + key} {value!r}, not {what}")
    return value


def read_manifest(run_dir: Path) -> dict:
    """The manifest :func:`write_manifest` wrote. Raises
    :class:`RunArtifactError`, naming the field, unless it is an object
    whose ``_MANIFEST_FIELDS`` keep their rules and whose envelope ``kind``
    is ``exact`` or ``conformal``, a conformal one with a numeric ``delta``
    in (0, 1)."""
    manifest = json.loads((Path(run_dir) / MANIFEST_NAME).read_text())
    if type(manifest) is not dict:
        raise RunArtifactError(f"{MANIFEST_NAME} is not a JSON object")
    for key, ok, what in _MANIFEST_FIELDS:
        _manifest_field(manifest, key, ok, what)
    envelope = manifest["envelope"]
    kind = _manifest_field(
        envelope, "kind", lambda v: v in ("exact", "conformal"), "'exact' or 'conformal'",
        "envelope.",
    )
    if kind == "conformal":
        _manifest_field(
            envelope, "delta", lambda v: type(v) in _NUMBER and 0.0 < v < 1.0,
            "a number in (0, 1)", "envelope.",
        )
    return manifest


def _read_jsonl(path: Path) -> Iterator:
    """The values of a JSON-lines file, in order; blank lines are skipped."""
    # Each batch of up to _BATCH_LINES lines is decoded as one JSON array,
    # so the text and records in flight stay bounded, whatever the file's
    # size. It is also the fastest rule measured: read_episode_records on
    # the 15,000-line log of a 5000-episode database run took 79 ms with
    # batches, 92 ms with one array of the whole file and 121 ms with one
    # decode per line (timeit medians of 10 alternating rounds, 2 vCPUs).
    with path.open() as fh:
        while lines := list(itertools.islice(fh, _BATCH_LINES)):
            text = ",".join(line for line in lines if not line.isspace())
            if text:
                yield from json.loads("[" + text + "]")


def _record_error(record) -> RunArtifactError:
    """Why an episode-log record does not make a gate entry."""
    if type(record) is not dict:
        return RunArtifactError(f"{EPISODE_LOG_NAME} logs a non-object record {record!r}")
    for key, kinds in _RECORD_KINDS.items():
        if key not in record:
            return RunArtifactError(f"{EPISODE_LOG_NAME} logs a record without {key!r}")
        if type(record[key]) not in kinds:
            return RunArtifactError(
                f"{EPISODE_LOG_NAME} logs a {_KIND_NAMES[kinds]} {key} {record[key]!r}"
            )
    return RunArtifactError(f"{EPISODE_LOG_NAME} logs an unknown verdict {record['verdict']!r}")


def read_episode_records(run_dir: Path) -> dict[int, list[GateEntry]]:
    """The gate entries of a run's episode log, grouped by episode in order
    of first appearance. Raises :class:`RunArtifactError` for a record that
    is not an object, lacks a key, holds a value of the wrong JSON type or
    names an unknown verdict. Each distinct label is kept as one string."""
    fields = itemgetter(*_RECORD_KINDS)
    verdicts = {v.value: v for v in Verdict}
    labels: dict[str, str] = {}
    label = labels.setdefault
    entries: dict[int, list[GateEntry]] = {}
    for record in _read_jsonl(Path(run_dir) / EPISODE_LOG_NAME):
        try:
            episode, step, time, state, proposed, value, verdict, executed, after, version = (
                fields(record)
            )
        except (KeyError, TypeError):
            raise _record_error(record) from None
        # _RECORD_KINDS spelled out, which is cheaper than a loop over it;
        # the types are checked before any value is hashed
        if not (
            type(episode) is type(step) is type(time) is type(version) is int
            and type(state) is type(proposed) is type(verdict) is type(executed) is str
            and type(value) in _NUMBER
            and type(after) in _NUMBER
            and verdict in verdicts
        ):
            raise _record_error(record)
        entries.setdefault(episode, []).append(
            GateEntry(
                step, time, label(state, state), label(proposed, proposed), value,
                verdicts[verdict], label(executed, executed), after, version,
            )
        )
    return entries


def read_summary(run_dir: Path) -> list[tuple[int, float, float]]:
    """``(episode, terminal_loss, b_final)`` of each summary row, converted
    as it is read; blank lines are skipped. Raises :class:`RunArtifactError`
    for a missing column, a row shorter than the header or a cell that does
    not convert."""
    path = Path(run_dir) / SUMMARY_NAME
    names = ("episode", "terminal_loss", "b_final")
    with path.open() as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            return []
        for name in names:
            if name not in header:
                raise RunArtifactError(f"{SUMMARY_NAME} has no {name!r} column")
        cells = itemgetter(*map(header.index, names))
        try:
            return [
                (int(episode), float(terminal_loss), float(b_final))
                for episode, terminal_loss, b_final in map(cells, filter(None, rows))
            ]
        except IndexError:
            raise RunArtifactError(
                f"{SUMMARY_NAME} has a row shorter than its header (line {rows.line_num})"
            ) from None
        except ValueError as exc:
            raise RunArtifactError(
                f"{SUMMARY_NAME} holds a cell that does not convert ({exc})"
            ) from None


def read_episode_logs(run_dir: Path, budget_initial: float) -> list[EpisodeLog]:
    """Rebuild the episode logs a run wrote, in summary-row order, given the
    initial budget of its scenario: the inverse of the episode, summary and
    boundary writers. Raises :class:`RunArtifactError` unless the summary
    rows and the episode log name the same episodes, or for a log record or
    summary cell that does not convert."""
    entries = read_episode_records(run_dir)
    boundary_records: dict[int, list[dict]] = {}
    for rec in _read_jsonl(Path(run_dir) / BOUNDARY_LOG_NAME):
        if type(rec) is not dict or type(rec.get("episode")) is not int:
            raise RunArtifactError(f"{BOUNDARY_LOG_NAME} logs a record without an integer episode")
        boundary_records.setdefault(rec.pop("episode"), []).append(rec)
    rows = read_summary(run_dir)
    if sorted(episode for episode, _, _ in rows) != sorted(entries):
        raise RunArtifactError(
            f"{SUMMARY_NAME} has {len(rows)} episode row(s) but {EPISODE_LOG_NAME} "
            f"logs {len(entries)} episode(s), not the same ones"
        )
    return [
        EpisodeLog(
            episode=episode,
            entries=tuple(entries[episode]),
            terminal_loss=terminal_loss,
            budget_initial=budget_initial,
            budget_final=budget_final,
            boundary_records=tuple(boundary_records.get(episode, ())),
        )
        for episode, terminal_loss, budget_final in rows
    ]


def write_calibration_csv(path: Path, rows: Iterable[dict]) -> Path:
    rows = list(rows)
    n_features = len(rows[0]["features"]) if rows else 0
    fields = ["time", "state", "action"] + [f"f{i}" for i in range(n_features)] + [
        "true_positive_toll"
    ]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow(
                [row["time"], row["state"], row["action"]]
                + [repr(x) for x in row["features"]]
                + [repr(row["true_positive_toll"])]
            )
    return Path(path)
