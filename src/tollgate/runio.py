"""Run artifact serialization: episode logs, summaries, manifests.

Episode logs are line-delimited JSON, one object per gate step, with sorted
keys so identical runs serialize byte for byte. Summaries are plain CSV.
The manifest embeds the resolved scenario document plus its hash, which
makes a run directory self-describing for later audits: given the initial
budget of that document, :func:`read_episode_logs` rebuilds the episode logs.
"""

from __future__ import annotations

import csv
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

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


# The keys of one episode-log line in sorted order, and the line they make
# with json.dumps's default separators.
_ENTRY_KEYS = (
    "boundary_version",
    "budget_after",
    "envelope_value",
    "episode",
    "executed",
    "proposed",
    "state",
    "step",
    "time",
    "verdict",
)
_ENTRY_LINE = "{" + ", ".join(f'"{key}": %s' for key in _ENTRY_KEYS) + "}"


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


def episode_json_lines(logs: Sequence[EpisodeLog]) -> list[str]:
    """One line per gate entry, each equal to ``json.dumps(record,
    sort_keys=True)`` of the entry's record."""
    enc = _json_scalar
    lines = []
    for log in logs:
        episode = enc(log.episode)
        for e in log.entries:
            lines.append(
                _ENTRY_LINE
                % (
                    enc(e.boundary_version),
                    enc(e.budget_after),
                    enc(e.envelope_value),
                    episode,
                    enc(e.executed),
                    enc(e.proposed),
                    enc(e.state),
                    enc(e.step),
                    enc(e.time),
                    enc(e.verdict.value),
                )
            )
    return lines


def write_episode_logs(out_dir: Path, logs: Sequence[EpisodeLog]) -> Path:
    path = out_dir / EPISODE_LOG_NAME
    text = "\n".join(episode_json_lines(logs))
    path.write_text(text + ("\n" if text else ""))
    return path


def write_boundary_log(out_dir: Path, logs: Sequence[EpisodeLog]) -> Path:
    path = out_dir / BOUNDARY_LOG_NAME
    lines = []
    for log in logs:
        for rec in log.boundary_records:
            lines.append(json.dumps({"episode": log.episode, **rec}, sort_keys=True))
    text = "\n".join(lines)
    path.write_text(text + ("\n" if text else ""))
    return path


def summary_rows(logs: Sequence[EpisodeLog]) -> list[tuple]:
    """One row per episode, in the order of ``_SUMMARY_FIELDS``."""
    return [
        (
            log.episode,
            repr(log.budget_final),
            repr(log.charged_total),
            repr(log.terminal_loss),
            *log.decision_counts().values(),
        )
        for log in logs
    ]


def write_summary_csv(out_dir: Path, logs: Sequence[EpisodeLog]) -> Path:
    path = out_dir / SUMMARY_NAME
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_FIELDS)
        writer.writerows(summary_rows(logs))
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
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def read_manifest(run_dir: Path) -> dict:
    return json.loads((Path(run_dir) / MANIFEST_NAME).read_text())


def read_episode_records(run_dir: Path) -> list[dict]:
    return _read_jsonl(Path(run_dir) / EPISODE_LOG_NAME)


def _read_jsonl(path: Path) -> list[dict]:
    # one decode of the lines as a JSON array beats one decode per line
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    return json.loads("[" + ",".join(lines) + "]")


def read_summary(run_dir: Path) -> list[dict]:
    path = Path(run_dir) / SUMMARY_NAME
    with path.open() as fh:
        return list(csv.DictReader(fh))


def read_episode_logs(run_dir: Path, budget_initial: float) -> list[EpisodeLog]:
    """Rebuild the episode logs a run wrote, in episode order, given the
    initial budget of its scenario: the inverse of the episode, summary and
    boundary writers. Raises :class:`RunArtifactError` unless the summary
    rows and the episode log name the same episodes, or for an episode
    number or summary amount that does not convert."""
    verdicts = {v.value: v for v in Verdict}
    entries: dict[int, list[GateEntry]] = {}
    for r in read_episode_records(run_dir):
        entries.setdefault(r["episode"], []).append(
            GateEntry(
                r["step"], r["time"], r["state"], r["proposed"], r["envelope_value"],
                verdicts[r["verdict"]], r["executed"], r["budget_after"], r["boundary_version"],
            )
        )
    boundary_records: dict[int, list[dict]] = {}
    for rec in _read_jsonl(Path(run_dir) / BOUNDARY_LOG_NAME):
        boundary_records.setdefault(rec.pop("episode"), []).append(rec)
    for episode in entries:
        if type(episode) is not int:
            raise RunArtifactError(f"{EPISODE_LOG_NAME} logs a non-integer episode {episode!r}")
    try:
        rows = [
            (int(row["episode"]), float(row["terminal_loss"]), float(row["b_final"]))
            for row in read_summary(run_dir)
        ]
    except (TypeError, ValueError) as exc:
        raise RunArtifactError(
            f"{SUMMARY_NAME} holds a cell that does not convert ({exc})"
        ) from None
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
