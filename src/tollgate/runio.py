"""Run artifact serialization: episode logs, summaries, manifests.

Episode logs are line-delimited JSON, one object per gate step, with sorted
keys so identical runs serialize byte for byte. A summary is CSV, one row
per episode, and every cell of a row but the episode and the terminal loss
follows from the episode's log lines and the initial budget: one function,
:func:`_summary_cells`, renders a row for the writer and for the reader,
which refuses a row that is not the one the writer would write.
The manifest is compact JSON with sorted keys. It embeds the scenario
document, in the canonical bytes its ``config_hash`` hashes, which makes a
run directory self-describing for later audits: :func:`read_episode_logs`
rebuilds the episode logs, and the stored document and seed rebuild the
gate that wrote them. :func:`manifest_parts` renders the bytes around the
document for the writer and for :func:`check_manifest`.

The episode-log, boundary-log and summary readers and writers stream. A
writer writes one episode at a time to an open file; a reader reads one
line at a time, with ``newline=""``, so each line keeps the line end it was
written with. Neither holds a file's whole text, its list of lines or one
decoded record per line. Each log line must be, byte for byte, the line the
writer writes for the record it decodes to, line end included: a line
that is not one JSON value is refused as ``<file> does not decode (line
<n>: <reason>)``, and so is a line that is not UTF-8; any other line that
is not the writer's is refused as ``<file> holds a line the writer does
not write (line <n>)``. The log readers hold the first lines they read,
keyed by their text around the episode number, so a line that repeats but
for its episode is decoded once and its repeats share one record.
:func:`read_episode_logs` joins the three logs in one ordered pass and
refuses logs out of order.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import operator
import os
import re
from functools import lru_cache
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
_SUMMARY_HEADER = ",".join(_SUMMARY_FIELDS) + "\r\n"

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


def _summary_cells(entries, budget_initial, terminal_loss) -> str:
    """A summary row after its episode cell and the comma that ends it: the
    final budget, which is the last entry's ``budget_after``, the ``fsum``
    of the budget each entry takes off the one before it, from
    ``budget_initial``, the terminal loss and the entries per verdict, as
    csv.writer writes them, none of which needs quoting, and the row's
    terminator."""
    before = (budget_initial, *(e.budget_after for e in entries[:-1]))
    charged = math.fsum(b - e.budget_after for b, e in zip(before, entries))
    verdicts = [e.verdict for e in entries]
    cells = (repr(entries[-1].budget_after), repr(charged), repr(terminal_loss)) + tuple(
        str(verdicts.count(v)) for v in Verdict
    )
    return ",".join(cells) + "\r\n"


def write_summary_csv(out_dir: Path, logs: Sequence[EpisodeLog], budget_initial: float) -> Path:
    """One summary row per episode of ``logs``, a gate's episodes from
    ``budget_initial``."""
    path = out_dir / SUMMARY_NAME
    cells_of = _by_identity(_summary_cells)
    with path.open("w", newline="") as fh:
        fh.write(_SUMMARY_HEADER)
        for log in logs:
            fh.write(f"{log.episode},{cells_of(log.entries, budget_initial, log.terminal_loss)}")
    return path


def manifest_parts(
    scenario_name: str, scenario_hash: str, seed: int, episodes: int, envelope: dict
) -> tuple[bytes, bytes]:
    """The bytes before and after the scenario document of the manifest,
    ``json.dumps(manifest, sort_keys=True, separators=(",", ":"))`` and a
    newline. ``envelope`` records the tier that quoted the run."""
    artifacts = dict(
        episode_log=EPISODE_LOG_NAME, summary=SUMMARY_NAME, boundary_log=BOUNDARY_LOG_NAME
    )
    manifest = dict(
        artifacts=artifacts, config_hash=scenario_hash, envelope=envelope, episodes=episodes,
        scenario_document=0, scenario_name=scenario_name, seed=seed,
    )
    # encoded with a 0 for the document and split there; a quote inside a
    # JSON string is escaped, so no value can match the key
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    head, tail = text.split('"scenario_document":0', 1)
    return f'{head}"scenario_document":'.encode(), f"{tail}\n".encode()


def write_manifest(out_dir: Path, document: bytes, parts: tuple[bytes, bytes]) -> Path:
    """Write ``document``, the bytes the run's ``config_hash`` hashes, as
    they are between the two :func:`manifest_parts`, so the document is
    never encoded again."""
    path = out_dir / MANIFEST_NAME
    with path.open("wb") as fh:
        fh.writelines((parts[0], document, parts[1]))
    return path


def check_manifest(data: bytes, document: bytes, parts: tuple[bytes, bytes]) -> None:
    """Raise :class:`RunArtifactError`, naming the first byte that differs,
    unless ``data`` is the manifest :func:`write_manifest` writes for
    ``document`` and ``parts``, which are compared in place."""
    head, tail = parts
    end = len(head) + len(document)
    if data.startswith(head) and data.startswith(document, len(head)) and data[end:] == tail:
        return
    # past the end of either text, its byte shows as b''
    written = head + document + tail
    at = len(os.path.commonprefix([data, written]))
    raise RunArtifactError(
        f"{MANIFEST_NAME} holds {data[at : at + 1]!r} at byte {at}, where the writer writes"
        f" {written[at : at + 1]!r} for its scenario, seed and episodes"
    )


@contextlib.contextmanager
def _opened(path: Path) -> Iterator[TextIO]:
    """The artifact at ``path``, open as UTF-8 text with ``newline=""``, so
    a line keeps its line end as written, and a ``\\r`` ends a line as a
    ``\\n`` does. Raises :class:`RunArtifactError`, naming the artifact, for
    bytes that are not UTF-8 or JSON, JSON nested past the recursion limit,
    or a ``ValueError`` its reader raises. A text-mode read decodes a chunk
    at a time, so bytes that are not UTF-8 are found again by line, only
    once it has failed."""
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        reason = next(_lines_not_utf8(path), exc)
        raise RunArtifactError(f"{path.name} does not decode ({reason})") from None
    except (ValueError, RecursionError) as exc:
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


# The manifest fields read before the run's gate is rebuilt, with their rules.
_MANIFEST_FIELDS = (
    ("config_hash", lambda v: type(v) is str, "a string"),
    ("seed", lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    ("episodes", lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    ("scenario_document", lambda v: type(v) is dict, "an object"),
)


def read_manifest(run_dir: Path) -> tuple[dict, bytes]:
    """The manifest :func:`write_manifest` wrote, decoded, and its bytes.
    Raises :class:`RunArtifactError`, naming the field, unless it is an
    object whose ``_MANIFEST_FIELDS`` each keep their rule."""
    with _opened(Path(run_dir) / MANIFEST_NAME) as fh:
        text = fh.read()
        manifest = json.loads(text)
    if type(manifest) is not dict:
        raise RunArtifactError(f"{MANIFEST_NAME} is not a JSON object")
    for key, ok, what in _MANIFEST_FIELDS:
        if key not in manifest:
            raise RunArtifactError(f"{MANIFEST_NAME} has no {key!r}")
        if not ok(manifest[key]):
            raise RunArtifactError(f"{MANIFEST_NAME} holds {key} {manifest[key]!r}, not {what}")
    return manifest, text.encode()


# The key before the episode number on each line the writers write.
_EPISODE_KEY = '"episode": '

# Distinct lines one reader holds decoded: the first ones it meets. The
# lines of a bundled run's log repeat but for their episode, database's
# 15,000 as 14 texts. A line past the held ones is decoded each time, as in
# a log where nothing repeats; on the 6x80 ladder, where most lines do not
# repeat, a memo that evicted its oldest line instead cost more than its
# hits saved.
_LINES_HELD = 256

# An episode number as json writes it: ASCII digits and no leading zero,
# and few enough that int takes them whatever its digit limit.
_EPISODE_NUMBER = re.compile(r"0|[1-9][0-9]{0,99}")


def _decoded(line: str, number: int):
    """The JSON value of line ``number`` of a file. Raises a ``ValueError``
    that names the line, which :func:`_opened` reports as the file's,
    unless the line is one JSON value, which JSON whitespace may surround."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        reason = f"{exc.msg}: column {exc.pos + 1}"
    except (ValueError, RecursionError) as exc:
        # a number past int's digit limit, or arrays nested too deep
        reason = str(exc)
    raise ValueError(f"line {number}: {reason}")


def _read_lines(path: Path, convert: Callable, parts_of: Callable) -> Iterator[tuple[int, object]]:
    """The ``(episode, value)`` pairs ``convert`` makes of the records of a
    JSON-lines file, read one line at a time, in order. Each line must be
    one JSON value (:func:`_decoded`) that ``convert`` takes to an episode
    and a value, and the line must be the one the writer writes for them:
    ``str(episode).join(parts_of((value,)))``. A ``KeyError``,
    ``TypeError``, ``ValueError`` or ``OverflowError`` that ``convert``
    raises refuses the line too, as :class:`RunArtifactError`.

    A line is cut at its first ``"episode": `` key, and the text around the
    number is the key of a memo of the values read so far, so a line that
    repeats but for its episode is decoded and checked once, and its
    repeats share one value. A line enters the memo only once it is the
    writer's line. Before the writer's episode key come only numbers and
    an escaped string, so the cut is at that key, and the line with any
    other number written as ``json`` writes one (``_EPISODE_NUMBER``) is
    the writer's line for the same value at that episode.
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
                continue
            decoded = _decoded(line, line_number)
            try:
                episode, value = convert(decoded)
                written = str(episode).join(parts_of((value,)))
            except (KeyError, TypeError, ValueError, OverflowError):
                written = None
            if written != line:
                raise RunArtifactError(
                    f"{path.name} holds a line the writer does not write (line {line_number})"
                )
            if number is not None and len(memo) < _LINES_HELD:
                memo[key] = value
            yield episode, value


def _entry(record) -> tuple[int, GateEntry]:
    """The episode and gate entry of an episode-log record, converted field
    by field."""
    entry = GateEntry(
        int(record["time"]), str(record["state"]), str(record["proposed"]),
        float(record["envelope_value"]), Verdict(record["verdict"]), str(record["executed"]),
        float(record["budget_after"]), int(record["boundary_version"]),
    )
    return operator.index(record["episode"]), entry


def read_episode_records(run_dir: Path) -> Iterator[tuple[int, tuple[GateEntry, ...]]]:
    """``(episode, entries)`` of each run of episode-log lines on one episode,
    in order. Raises :class:`RunArtifactError` for a line that is not the
    writer's (:func:`_read_lines`, :func:`_entry`). Lines that repeat but
    for their episode share one entry."""
    current, entries = None, []
    for episode, entry in _read_lines(Path(run_dir) / EPISODE_LOG_NAME, _entry, _entry_parts):
        if episode != current:
            if entries:
                yield current, tuple(entries)
            current, entries = episode, []
        entries.append(entry)
    if entries:
        yield current, tuple(entries)


def read_summary(run_dir: Path) -> Iterator[tuple[int, float, str]]:
    """``(episode, terminal_loss, row)`` of each summary row, in file order:
    its episode and terminal loss cells, converted as they are read, and the
    row as it was read, line end included. Raises :class:`RunArtifactError`
    for a header that is not the writer's, a row of other than one cell per
    header field, or an episode or loss cell that does not convert."""
    with _opened(Path(run_dir) / SUMMARY_NAME) as fh:
        header = fh.readline()
        if header != _SUMMARY_HEADER:
            raise ValueError(f"line 1: header {header!r} is not the writer's")
        for number, row in enumerate(fh, 2):
            cells = row.split(",")
            if len(cells) != len(_SUMMARY_FIELDS):
                raise ValueError(f"line {number}: {len(cells)} cell(s), not {len(_SUMMARY_FIELDS)}")
            try:
                episode, terminal_loss = int(cells[0]), float(cells[3])
            except ValueError as exc:
                raise RunArtifactError(
                    f"{SUMMARY_NAME} holds a cell that does not convert ({exc}) (line {number})"
                ) from None
            yield episode, terminal_loss, row


def _boundary_record(rec) -> tuple[int, dict]:
    """The episode and boundary record of a boundary-log record, converted
    field by field."""
    record = {
        "boundary_id": str(rec["boundary_id"]),
        "version": int(rec["version"]),
        "exposure": [float(x) for x in rec["exposure"]],
        "outside_state": str(rec["outside_state"]),
    }
    return operator.index(rec["episode"]), record


def read_episode_logs(run_dir: Path, budget_initial: float) -> Iterator[EpisodeLog]:
    """Rebuild a run's episode logs, one at a time in summary-row order: the
    inverse of the episode, summary and boundary writers, for a gate's
    episodes from ``budget_initial``. Raises :class:`RunArtifactError` for a
    record or cell that does not convert, where the logs disagree on the
    next episode (for a boundary record, once no row is left to take it),
    or for a summary row that is not the one :func:`write_summary_csv`
    writes for its episode's log lines and terminal loss.

    The rows checked are held for the last ``_PATHS_HELD`` distinct
    ``(entries, terminal loss, row after the episode)``, so a path's rows
    are rendered once while it is held. The row's text is in the key
    because equal losses, ``0.0`` and ``-0.0``, may write apart."""

    @lru_cache(maxsize=_PATHS_HELD)
    def written(entries: tuple[GateEntry, ...], terminal_loss: float, cells: str) -> bool:
        return cells == _summary_cells(entries, budget_initial, terminal_loss)

    groups = read_episode_records(run_dir)
    boundary = _read_lines(Path(run_dir) / BOUNDARY_LOG_NAME, _boundary_record, _record_parts)
    pending = next(boundary, None)
    for episode, loss, row in read_summary(run_dir):
        logged, entries = next(groups, ("none", ()))
        if logged != episode:
            raise RunArtifactError(
                f"{SUMMARY_NAME} has episode {episode} next, {EPISODE_LOG_NAME} episode {logged}"
            )
        number, _, cells = row.partition(",")
        if number != str(episode) or not written(entries, loss, cells):
            expected = f"{episode},{_summary_cells(entries, budget_initial, loss)}"
            raise RunArtifactError(
                f"{SUMMARY_NAME} holds the row {row!r}, where the logs of episode {episode}"
                f" give {expected!r}"
            )
        records = []
        while pending is not None and pending[0] == episode:
            records.append(pending[1])
            pending = next(boundary, None)
        yield EpisodeLog(episode, entries, loss, tuple(records))
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
