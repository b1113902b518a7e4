"""Output checks on what the CLI printed and wrote.

Each check returns a list of problems; an empty list means the output is
correct. A command with any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from pathlib import Path

ARTIFACTS = ("episodes.jsonl", "summary.csv", "boundaries.jsonl", "manifest.json")
_DECISION_FIELDS = (
    "n_execute",
    "n_downgrade",
    "n_escalate_approved",
    "n_escalate_denied",
    "n_block",
)
TOLL_TOL = 1e-9


def artifact_hashes(run_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((Path(run_dir) / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


def check_run_dir(run_dir: Path, episodes: int) -> list[str]:
    """``episodes.jsonl`` has one line per decision counted in
    ``summary.csv``, and the summary has one row per episode."""
    run_dir = Path(run_dir)
    try:
        with (run_dir / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        lines = (run_dir / "episodes.jsonl").read_text().splitlines()
    except OSError as exc:
        return [f"unreadable run directory: {exc}"]
    problems = []
    if len(rows) != episodes:
        problems.append(f"summary.csv has {len(rows)} rows, expected {episodes}")
    decisions = sum(int(row[f]) for row in rows for f in _DECISION_FIELDS)
    if len(lines) != decisions:
        problems.append(
            f"episodes.jsonl has {len(lines)} lines, summary.csv counts {decisions} decisions"
        )
    return problems


_COVERAGE = re.compile(r"coverage estimate\s*:\s*(\d+)/(\d+) quotes covered")


def check_report_output(stdout: str) -> list[str]:
    """``report`` printed a PASS verdict and full coverage."""
    problems = []
    if "budget guarantee" not in stdout or not stdout.rstrip().endswith("-> PASS"):
        problems.append("report did not print a PASS budget guarantee")
    match = _COVERAGE.search(stdout)
    if match is None:
        problems.append("report printed no coverage line")
    elif match.group(1) != match.group(2):
        problems.append(f"report coverage {match.group(1)}/{match.group(2)} is not full")
    return problems


def check_verify_output(stdout: str) -> list[str]:
    """``verify`` printed a JSON report in which every property passed."""
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify output is not a JSON report: {exc}"]
    failed = [
        f"{r['suite']}:{p['name']}"
        for r in results
        for p in r["properties"]
        if not p["passed"]
    ]
    problems = [f"property failed: {name}" for name in failed]
    if not results:
        problems.append("verify reported no suites")
    return problems


# ---------------------------------------------------------------------------
# oracle spot-check


def _path_count(model, policy, time: int, state: str, forced: str) -> int:
    """Number of paths the oracle's terminal-law walk takes from a node with
    ``forced`` chosen there and ``policy`` afterwards."""
    memo: dict[tuple[int, str], int] = {}

    def count(t: int, s: str, action: str | None) -> int:
        if t == model.horizon:
            return 1
        if action is None and (t, s) in memo:
            return memo[(t, s)]
        choices = [(action, 1.0)] if action is not None else policy.action_dist(t, s)
        total = 0
        for a, ap in choices:
            if ap <= 0.0:
                continue
            for nxt, tp in model.kernel(t, s, a):
                if tp > 0.0:
                    total += count(t + 1, nxt, None)
        if action is None:
            memo[(t, s)] = total
        return total

    return count(time, state, forced)


def oracle_spot_check(
    run_dir: Path, per_layer: int | None, seed: int
) -> tuple[list[str], int, int]:
    """Recompute logged EXECUTE quotes with the brute-force oracle.

    Eligible are the distinct (time, state, action) keys of EXECUTE records
    whose action differs from its safe default and whose two forced subtrees
    both fit the default ``EnumerationBudget``. ``per_layer`` of them per
    time layer (all when None) are drawn with ``seed``, so the deepest
    eligible layer, whose subtrees cost seconds to enumerate, is checked
    once and not at random many times. Every logged ``envelope_value`` of a
    drawn key must equal the oracle's positive toll within ``TOLL_TOL``.
    Returns the problems, the number of keys checked and the number
    eligible.
    """
    from tollgate.envmodel import Intervention
    from tollgate.oracle import EnumerationBudget, enumerate_terminal_law, static_risk
    from tollgate.scenario import resolve_scenario

    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    sc = resolve_scenario(manifest["scenario_document"])
    budget = EnumerationBudget()
    logged: dict[tuple[int, str, str], list[float]] = {}
    for line in (run_dir / "episodes.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["verdict"] == "EXECUTE":
            key = (rec["time"], rec["state"], rec["proposed"])
            logged.setdefault(key, []).append(rec["envelope_value"])

    eligible = []
    for key in sorted(logged):
        t, s, a = key
        d = sc.safe_defaults.default_for(t, s, a)
        if d != a and all(
            _path_count(sc.model, sc.policy, t, s, x) <= budget.max_paths for x in (a, d)
        ):
            eligible.append(key)
    chosen = eligible
    if per_layer is not None:
        rng = random.Random(seed)
        chosen = []
        for t in sorted({key[0] for key in eligible}):
            layer = [key for key in eligible if key[0] == t]
            chosen += rng.sample(layer, min(per_layer, len(layer)))

    def oracle_risk(t: int, s: str, action: str) -> float:
        law = enumerate_terminal_law(sc.model, Intervention(t, s, action), sc.policy, budget)
        return static_risk(law, sc.risk_spec)

    problems = []
    for t, s, a in chosen:
        d = sc.safe_defaults.default_for(t, s, a)
        toll = max(oracle_risk(t, s, a) - oracle_risk(t, s, d), 0.0)
        for value in logged[(t, s, a)]:
            if abs(value - toll) > TOLL_TOL:
                problems.append(
                    f"logged quote {value!r} at ({t}, {s!r}, {a!r}) differs from "
                    f"the oracle toll {toll!r}"
                )
                break
    return problems, len(chosen), len(eligible)
