"""Run artifact serialization: episode logs, summaries, manifests.

Episode logs are line-delimited JSON, one object per gate step, with sorted
keys so identical runs serialize byte for byte. Summaries are plain CSV.
The manifest is compact JSON with sorted keys. It embeds the scenario
document, in the canonical bytes its ``config_hash`` hashes, which makes a
run directory self-describing for later audits: :func:`read_episode_logs`
rebuilds the episode logs, and the stored document and seed rebuild the
gate that wrote them.

The episode-log, boundary-log and summary readers and writers stream. A
writer writes one episode at a time to an open file; a reader reads one
line at a time. Neither holds a file's whole text, its list of lines or one
decoded record per line. Each line of a log that is not blank must be one
JSON value, which JSON whitespace may surround; any other line is refused
as ``<file> does not decode (line <n>: <reason>)``, and so is a line that
is not UTF-8. A record that a reader refuses names its line too. The log
readers hold the first lines they decode, keyed by their text around the
episode number, so a line that repeats but for its episode is decoded once
and its repeats share one record. :func:`read_episode_logs` joins the three
logs in one ordered pass and refuses logs out of order.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import re
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .exceptions import RunArtifactError
from .gate import _PATHS_HELD, EpisodeLog, GateEntry, Verdict

EPISODE_LOG_NAME = "episodes.jsonl"
SUMMARY_NAME = "summary.csv"
MANIFEST_NAME = "manifest.json"
BOUNDARY_LOG_NAME = "boundaries.jsonl"

# One count column per verdict, in declaration order.
_SUMMARY_FIELDS = ("episode", "b_final", "charged_sum", "terminal_loss") + tuple(
    "n_" + v.value.lower() for v in Verdict
)

# The JSON types each key of an episode-log line may hold: the episode, the
# step, which is the entry's time, then the GateEntry fields in their order.
_INT, _STR, _NUMBER = (int,), (str,), (int, float)
_RECORD_KINDS = dict(
    zip(
        ("episode", "step") + GateEntry._fields,
        (_INT, _INT, _INT, _STR, _STR, _NUMBER, _STR, _STR, _NUMBER, _INT),
    )
)
_KIND_NAMES = {_INT: "non-integer", _STR: "non-string", _NUMBER: "non-numeric"}


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


# json.dumps's rules with sorted keys, built once for every record encoded.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _record_parts(records: Iterable[dict]) -> list[str]:
    """The log lines of ``records``, ``json.dumps({**record, "episode":
    episode}, sort_keys=True)`` each, split where the episode number goes:
    joined by the episode number, they are that episode's lines. Each record
    is encoded once, with episode 0, and split at its ``"episode": 0`` key;
    a quote inside a JSON string is escaped, so no value of a flat record
    can match."""
    parts = [""]
    for rec in records:
        head, tail = _ENCODE({**rec, "episode": 0}).split('"episode": 0', 1)
        parts[-1] += head + '"episode": '
        parts.append(tail + "\n")
    return parts


def _entry_parts(entries: tuple[GateEntry, ...]) -> list[str]:
    """:func:`_record_parts` of each entry's fields and its ``step``, its
    time; ``json`` writes a verdict as its value, as it writes any ``str``."""
    return _record_parts({**e._asdict(), "step": e.time} for e in entries)


def _episode_texts(paths: Iterable[tuple[int, object]], parts_of) -> Iterator[str]:
    """Each ``(episode, path)``'s lines: ``parts_of(path)`` joined by the
    episode number, each path encoded once while it is held."""
    parts_of = _by_identity(parts_of)
    for episode, path in paths:
        yield str(episode).join(parts_of(path))


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
            _episode_texts(((log.episode, log.boundary_records) for log in logs), _record_parts)
        )
    return path


def _summary_tail(entries, budget_initial, budget_final, terminal_loss) -> str:
    """A summary row after its episode cell: the final budget, the ``fsum``
    of the budget each entry takes off the one before it, the terminal loss
    and the entries per verdict, as csv.writer writes them, none of which
    needs quoting, and the row's terminator."""
    before = (budget_initial, *(e.budget_after for e in entries[:-1]))
    charged = math.fsum(b - e.budget_after for b, e in zip(before, entries))
    verdicts = [e.verdict for e in entries]
    cells = (repr(budget_final), repr(charged), repr(terminal_loss)) + tuple(
        str(verdicts.count(v)) for v in Verdict
    )
    return "," + ",".join(cells) + "\r\n"


def write_summary_csv(out_dir: Path, logs: Sequence[EpisodeLog], budget_initial: float) -> Path:
    """One summary row per episode of ``logs``, a gate's episodes from
    ``budget_initial``."""
    path = out_dir / SUMMARY_NAME
    tail_of = _by_identity(_summary_tail)
    with path.open("w", newline="") as fh:
        fh.write(",".join(_SUMMARY_FIELDS) + "\r\n")
        for log in logs:
            tail = tail_of(log.entries, budget_initial, log.budget_final, log.terminal_loss)
            fh.write(str(log.episode) + tail)
    return path


def write_manifest(
    out_dir: Path,
    scenario_name: str,
    scenario_document: bytes,
    scenario_hash: str,
    seed: int,
    episodes: int,
    envelope: dict,
) -> Path:
    """Write the manifest as ``json.dumps(manifest, sort_keys=True,
    separators=(",", ":"))`` and a newline, where ``scenario_document`` is
    the document's own encoding by those rules, the bytes its
    ``scenario_hash`` hashes. Those bytes go in as they are, so the
    document is never encoded again. ``envelope`` records the tier that
    quoted the run (``kind``, plus the conformal fit's ``delta`` and
    calibration)."""
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
        "scenario_document": 0,
        "envelope": envelope,
    }
    # encoded with a 0 for the document and split there; a quote inside a
    # JSON string is escaped, so no value can match the key
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    head, tail = text.split('"scenario_document":0', 1)
    with path.open("wb") as fh:
        fh.write(f'{head}"scenario_document":'.encode())
        fh.write(scenario_document)
        fh.write(f"{tail}\n".encode())
    return path


@contextlib.contextmanager
def _opened(path: Path) -> Iterator[TextIO]:
    """The artifact at ``path``, open as UTF-8 text. Raises
    :class:`RunArtifactError`, naming the artifact, for bytes that are not
    UTF-8, JSON or CSV, or JSON nested past the recursion limit. A text-mode
    read decodes a chunk at a time, so bytes that are not UTF-8 are found
    again by line, only once it has failed."""
    try:
        with path.open(encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        reason = next(_lines_not_utf8(path), exc)
        raise RunArtifactError(f"{path.name} does not decode ({reason})") from None
    except (ValueError, RecursionError, csv.Error) as exc:
        raise RunArtifactError(f"{path.name} does not decode ({exc})") from None


def _lines_not_utf8(path: Path) -> Iterator[str]:
    """``line <n>: <reason>`` for each line of ``path`` that is not UTF-8,
    numbered as a text-mode read numbers them. Latin-1 decodes every byte,
    and splits lines where UTF-8 does: no UTF-8 character holds a line end
    but the line end itself."""
    with path.open(encoding="latin-1") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                yield f"line {number}: {exc}"


# The manifest fields report reads: key, rule, and what the rule asks for.
_MANIFEST_FIELDS = (
    ("scenario_name", lambda v: type(v) is str, "a string"),
    ("config_hash", lambda v: type(v) is str, "a string"),
    ("seed", lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    ("episodes", lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    ("scenario_document", lambda v: type(v) is dict, "an object"),
    ("envelope", lambda v: type(v) is dict, "an object"),
)


def read_manifest(run_dir: Path) -> dict:
    """The manifest :func:`write_manifest` wrote. Raises
    :class:`RunArtifactError`, naming the field, unless it is an object
    whose ``_MANIFEST_FIELDS`` are there and keep their rules."""
    with _opened(Path(run_dir) / MANIFEST_NAME) as fh:
        manifest = json.load(fh)
    if type(manifest) is not dict:
        raise RunArtifactError(f"{MANIFEST_NAME} is not a JSON object")
    for key, ok, what in _MANIFEST_FIELDS:
        if key not in manifest:
            raise RunArtifactError(f"{MANIFEST_NAME} has no {key!r}")
        if not ok(manifest[key]):
            raise RunArtifactError(f"{MANIFEST_NAME} holds {key} {manifest[key]!r}, not {what}")
    return manifest


# The key before the episode number on each line the writers write.
_EPISODE_KEY = '"episode": '

# Distinct lines one reader holds decoded: the first ones it meets. The
# lines of a bundled run's log repeat but for their episode, database's
# 15,000 as 14 texts. A line past the held ones is decoded each time, as in
# a log where nothing repeats; on the 6x80 ladder, where most lines do not
# repeat, a memo that evicted its oldest line instead cost more than its
# hits saved.
_LINES_HELD = 256

# Decodes a line as the writers write it: one JSON value, then the line end.
_DECODE = json.JSONDecoder().raw_decode


# An episode number as json writes it: ASCII digits and no leading zero,
# and few enough that int takes them whatever its digit limit.
_EPISODE_NUMBER = re.compile(r"0|[1-9][0-9]{0,99}")


def _one_episode_key(line: str) -> bool:
    """Whether ``line`` spells "episode" as a JSON string once, as
    ``"episode"``: every other spelling of it escapes a letter as
    ``\\u006x`` or ``\\u007x``. The record of such a line that has an
    episode key has it there, and nowhere else."""
    return "\\u006" not in line and "\\u007" not in line and line.count('"episode"') == 1


def _decoded(line: str, number: int):
    """The JSON value of line ``number`` of a file. Raises a ``ValueError``
    that names the line, which :func:`_opened` reports as the file's,
    unless the line is one JSON value, which JSON whitespace may surround."""
    try:
        value, end = _DECODE(line)
        if line[end:] in ("\n", ""):
            return value
    except (ValueError, RecursionError):
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        reason = f"{exc.msg}: column {exc.pos + 1}"
    except (ValueError, RecursionError) as exc:
        # a number past int's digit limit, or arrays nested too deep
        reason = str(exc)
    raise ValueError(f"line {number}: {reason}")


def _read_lines(path: Path, convert: Callable) -> Iterator[tuple[int, object]]:
    """The ``(episode, value)`` pairs ``convert`` makes of the records of a
    JSON-lines file, read one line at a time, in order. Blank lines are
    skipped; every other line must be one JSON value (:func:`_decoded`),
    and ``convert`` raises :class:`RunArtifactError` for a record it
    refuses, which is raised again with `` (line <n>)`` appended.

    A line is cut at its first ``"episode": `` key, and the text around the
    number is the key of a memo of the values converted so far, so a line
    that repeats but for its episode is decoded and checked once, and its
    repeats share one value. A line enters the memo only when the cut is
    its one episode key (:func:`_one_episode_key`) and its number is how
    ``json`` writes one (``_EPISODE_NUMBER``); then the line with any
    other such number decodes to the same record with that episode.
    """
    # read_episode_records on the 15,000-line log of a 5000-episode
    # database run took 98 ms decoding and checking every line, and 20 ms
    # with the memo (CPU time, min of 30 alternating rounds, 2 vCPUs)
    memo: dict[tuple[str, str], object] = {}
    cut = number = None
    with _opened(path) as fh:
        for line_number, line in enumerate(fh, 1):
            head, _, tail = line.partition(_EPISODE_KEY)
            digits, _, rest = tail.partition(",")
            if digits != cut:
                cut, number = digits, int(digits) if _EPISODE_NUMBER.fullmatch(digits) else None
            key = head, rest
            value = memo.get(key) if number is not None else None
            if value is not None:
                yield number, value
            elif not line.isspace():
                try:
                    pair = convert(_decoded(line, line_number))
                except RunArtifactError as exc:
                    raise RunArtifactError(f"{exc} (line {line_number})") from None
                if number is not None and len(memo) < _LINES_HELD and _one_episode_key(line):
                    memo[key] = pair[1]
                yield pair


_FIELDS = itemgetter(*_RECORD_KINDS)
_VERDICTS = {v.value: v for v in Verdict}


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
    if record["step"] != record["time"]:
        return RunArtifactError(
            f"{EPISODE_LOG_NAME} logs step {record['step']} at time {record['time']}"
        )
    return RunArtifactError(f"{EPISODE_LOG_NAME} logs an unknown verdict {record['verdict']!r}")


def _entry(record) -> tuple[int, GateEntry]:
    """The episode and gate entry of an episode-log record. Raises
    :class:`RunArtifactError` for a record that is not an object, lacks a
    key, holds a value of the wrong JSON type, names an unknown verdict or
    logs a step other than its time."""
    try:
        episode, step, time, state, proposed, value, verdict, executed, after, version = (
            _FIELDS(record)
        )
    except (KeyError, TypeError):
        raise _record_error(record) from None
    # _RECORD_KINDS spelled out, which is cheaper than a loop over it; the
    # types are checked before any value is hashed
    if not (
        type(episode) is type(step) is type(time) is type(version) is int
        and type(state) is type(proposed) is type(verdict) is type(executed) is str
        and type(value) in _NUMBER
        and type(after) in _NUMBER
        and verdict in _VERDICTS
        and step == time
    ):
        raise _record_error(record)
    return episode, GateEntry(
        time, state, proposed, value, _VERDICTS[verdict], executed, after, version
    )


def read_episode_records(run_dir: Path) -> Iterator[tuple[int, tuple[GateEntry, ...]]]:
    """``(episode, entries)`` of each run of episode-log lines on one episode,
    in order. Raises :class:`RunArtifactError` for a record :func:`_entry`
    refuses. Lines that repeat but for their episode share one entry."""
    current, entries = None, []
    for episode, entry in _read_lines(Path(run_dir) / EPISODE_LOG_NAME, _entry):
        if episode != current:
            if entries:
                yield current, tuple(entries)
            current, entries = episode, []
        entries.append(entry)
    if entries:
        yield current, tuple(entries)


def read_summary(run_dir: Path) -> Iterator[tuple[int, float, float]]:
    """``(episode, terminal_loss, b_final)`` of each summary row, in file
    order, converted as it is read; blank lines are skipped. Raises
    :class:`RunArtifactError` for a missing column, a row shorter than the
    header or a cell that does not convert."""
    names = ("episode", "terminal_loss", "b_final")
    with _opened(Path(run_dir) / SUMMARY_NAME) as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            return
        for name in names:
            if name not in header:
                raise RunArtifactError(f"{SUMMARY_NAME} has no {name!r} column")
        cells = itemgetter(*map(header.index, names))
        try:
            for episode, terminal_loss, b_final in map(cells, filter(None, rows)):
                yield int(episode), float(terminal_loss), float(b_final)
        except IndexError:
            raise RunArtifactError(
                f"{SUMMARY_NAME} has a row shorter than its header (line {rows.line_num})"
            ) from None
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            raise RunArtifactError(
                f"{SUMMARY_NAME} holds a cell that does not convert ({exc})"
                f" (line {rows.line_num})"
            ) from None


def _boundary_record(rec) -> tuple[int, dict]:
    """The episode of a boundary-log record, and the record without it."""
    if type(rec) is not dict or type(rec.get("episode")) is not int:
        raise RunArtifactError(f"{BOUNDARY_LOG_NAME} logs a record without an integer episode")
    return rec.pop("episode"), rec


def read_episode_logs(run_dir: Path) -> Iterator[EpisodeLog]:
    """Rebuild a run's episode logs, one at a time in summary-row order: the
    inverse of the episode, summary and boundary writers. Raises
    :class:`RunArtifactError` for a record or cell that does not convert, or
    where the logs disagree on the next episode (for a boundary record, once
    no row is left to take it)."""
    groups = read_episode_records(run_dir)
    boundary = _read_lines(Path(run_dir) / BOUNDARY_LOG_NAME, _boundary_record)
    pending = next(boundary, None)
    for episode, loss, final in read_summary(run_dir):
        logged, entries = next(groups, ("none", ()))
        if logged != episode:
            raise RunArtifactError(
                f"{SUMMARY_NAME} has episode {episode} next, {EPISODE_LOG_NAME} episode {logged}"
            )
        records = []
        while pending is not None and pending[0] == episode:
            records.append(pending[1])
            pending = next(boundary, None)
        yield EpisodeLog(episode, entries, loss, final, tuple(records))
    for name, left in ((EPISODE_LOG_NAME, next(groups, None)), (BOUNDARY_LOG_NAME, pending)):
        if left is not None:
            raise RunArtifactError(
                f"{name} logs episode {left[0]} out of order, or with no {SUMMARY_NAME} row"
            )


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
