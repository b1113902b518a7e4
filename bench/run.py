"""tollgate benchmark: wall times of the CLI on three workloads, and a traced
run that splits them by layer.

Usage, from the repository root:

    python3 bench/run.py --workload {bundled,ladder,verify} --seed N \\
        --seconds S --trace {0,1}

Each run is a closed loop with one client: CLI commands run one after
another as child processes of this one, each started when the previous one
has exited, with no threads. One pass runs the workload's commands once;
passes repeat until ``--seconds`` have gone by, and at least two run, so
that every (scenario, seed) runs twice in one invocation. Each pass starts
with two set-up-only processes, which give ``setup_s``.
The program runs from ``src/`` of the checkout; nothing is installed.

Workloads (why each was chosen):

* ``bundled``: ``run`` then ``report`` on payments, database and trading.
  Each prices at most 14 distinct keys for 10-16k quotes, so time goes to
  sampling, gate steps, boundary commits, serialisation and import. A
  pricing optimisation should leave it unchanged; a sampler or
  serialisation change shows here.
* ``ladder``: ``run`` then ``report`` on a seeded synthetic exact-tier tree
  (see ladder.py) where cold pricing dominates. A sampler change should
  barely move it. The tree comes from ``--ladder-seed``; ``--seed`` is the
  seed of the run, as on the other workloads.
* ``verify``: ``verify --suite all``. It values hundreds of tiny models a
  few times each, and is the only workload that runs the oracle, splitting
  checks, witness coupling, conformal calibration and fast-tier gating.

With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, the traced ones running
each command in-process under the wrappers of spans.py (see traced.py), and
the result line holds the per-layer metrics. metrics.py says which
end-to-end metric each layer metric should move. Every command's output is
checked (checks.py); a command that exits nonzero, times out or fails a
check counts as failed. The last line of standard output is the JSON
result; everything before it is for people, and the whole record also goes
to ``.bench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import checks
import metrics
import spans
from ladder import write_ladder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("bundled", "ladder", "verify")
BUNDLED = ("payments", "database", "trading")
SETUP_PER_PASS = 2
COMMAND_TIMEOUT_S = 120
BUNDLED_EPISODES = 5000
LADDER_EPISODES = 300
ORACLE_KEYS_PER_LAYER = 1


class Command(NamedTuple):
    kind: str  # "run" | "report" | "verify" | "setup"
    label: str
    args: tuple[str, ...]
    run_dir: Path | None = None
    episodes: int = 0


class Outcome(NamedTuple):
    wall_s: float
    rc: int
    stdout: str
    rss_mb: float


class Ledger:
    """Every command attempted, with the problems its checks found."""

    def __init__(self) -> None:
        self.records: list[tuple[str, list[str]]] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.records.append((label, problems))

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for _, problems in self.records if problems)


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def plan(args: argparse.Namespace, work: Path) -> tuple[list[Command], list[Command]]:
    """The workload's set-up commands and the commands of one pass."""
    seed = str(args.seed)
    if args.workload == "verify":
        setup = [Command("setup", "verify --help", ("verify", "--help"))]
        verify = Command("verify", "verify all", ("verify", "--suite", "all", "--seed", seed))
        return setup, [verify]
    if args.workload == "bundled":
        scenarios = [(name, name) for name in BUNDLED]
        episodes = BUNDLED_EPISODES
    else:
        path = write_ladder(
            work / "ladder.scn.json", args.ladder_horizon, args.ladder_width, args.ladder_seed
        )
        scenarios = [("ladder", _rel(path))]
        episodes = LADDER_EPISODES
    setup, runs, reports = [], [], []
    for name, scenario in scenarios:
        run_dir = work / name
        common = ("run", "--scenario", scenario, "--seed", seed)
        setup.append(
            Command("setup", f"setup {name}",
                    common + ("--episodes", "0", "--out", _rel(work / "setup" / name)))
        )
        runs.append(
            Command("run", f"run {name}",
                    common + ("--episodes", str(episodes), "--out", _rel(run_dir)),
                    run_dir, episodes)
        )
        reports.append(
            Command("report", f"report {name}", ("report", "--out", _rel(run_dir)), run_dir, episodes)
        )
    return setup, runs + reports


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(cli_args: tuple[str, ...], work: Path, spans_file: Path | None = None) -> Outcome:
    """Run one CLI command as a child process and wait for it; the wall time
    covers process start to exit, as a user sees it."""
    if spans_file is None:
        argv = [sys.executable, "-m", "tollgate.cli", *cli_args]
    else:
        argv = [sys.executable, str(BENCH / "traced.py"), str(spans_file), *cli_args]
    with tempfile.TemporaryFile(dir=work) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.DEVNULL
        )
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    return Outcome(wall, proc.returncode, stdout, usage.ru_maxrss / 1024.0)


def check_command(cmd: Command, outcome: Outcome, first: dict) -> list[str]:
    """Problems with one command's output. ``first`` keeps each command's
    first artifacts or output, which every later pass must reproduce."""
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}"]
    if cmd.kind == "run":
        problems = checks.check_run_dir(cmd.run_dir, cmd.episodes)
        fingerprint = checks.artifact_hashes(cmd.run_dir)
    elif cmd.kind == "report":
        problems = checks.check_report_output(outcome.stdout)
        fingerprint = outcome.stdout
    elif cmd.kind == "verify":
        problems = checks.check_verify_output(outcome.stdout)
        fingerprint = outcome.stdout
    else:
        return []
    if first.setdefault(cmd.label, fingerprint) != fingerprint:
        problems.append("output differs from the first pass with the same seed")
    return problems


class Pass(NamedTuple):
    traced: bool
    wall_s: float
    by_kind: dict[str, float]
    dumps: list[dict]


def run_pass(commands: list[Command], traced: bool, work: Path, ledger: Ledger,
             first: dict, first_counts: dict, rss: list[float]) -> Pass:
    by_kind = {"run": 0.0, "report": 0.0, "verify": 0.0}
    dumps = []
    for i, cmd in enumerate(commands):
        spans_file = work / f"spans-{i}.json" if traced else None
        outcome = run_cli(cmd.args, work, spans_file)
        problems = check_command(cmd, outcome, first)
        by_kind[cmd.kind] += outcome.wall_s
        if traced and outcome.rc == 0:
            dump = json.loads(spans_file.read_text())
            counts = {"calls": dump["calls"], "counters": dump["counters"]}
            if first_counts.setdefault(cmd.label, counts) != counts:
                problems.append("traced counts differ from the first traced pass")
            dumps.append(dump)
        if not traced:
            rss.append(outcome.rss_mb)
        ledger.add(("traced " if traced else "") + cmd.label, problems)
    return Pass(traced, sum(by_kind.values()), by_kind, dumps)


# ---------------------------------------------------------------------------
# reporting


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "not installed"
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tollgate").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(_rel(path).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        **versions,
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles of two or more samples."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def end_to_end(
    setup: list[float], passes: list[Pass], rss: list[float], ledger: Ledger
) -> tuple[dict, dict]:
    """End-to-end values, and the spread of each timed one."""
    untraced = [p for p in passes if not p.traced]
    series = {"setup_s": setup, "commands_s": [p.wall_s for p in untraced]}
    for kind in ("run", "report", "verify"):
        if any(p.by_kind[kind] for p in untraced):
            series[f"{kind}_s"] = [p.by_kind[kind] for p in untraced]
    spreads = {name: spread(vals) for name, vals in series.items()}
    values = {name: s["median"] for name, s in spreads.items()}
    values["peak_rss_mb"] = max(rss)
    values["failed_share"] = ledger.failed / ledger.attempted
    return values, spreads


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    by_pass = [spans.layer_metrics(p.dumps) for p in traced]
    values = {name: statistics.median_low(m[name] for m in by_pass) for name in by_pass[0]}
    values["import.tollgate_s"] = statistics.median(
        d["import_s"] for p in traced for d in p.dumps
    )
    values["trace.commands_s"] = statistics.median(p.wall_s for p in traced)
    values["trace.overhead_s"] = values["trace.commands_s"] - statistics.median(
        p.wall_s for p in passes if not p.traced
    )
    return values


def artifact_counts(commands: list[Command]) -> dict:
    """Episodes and decisions one pass writes, read off its run directories."""
    runs = [c for c in commands if c.kind == "run" and (c.run_dir / "episodes.jsonl").is_file()]
    if not runs:
        return {}
    return {
        "base.episodes": sum(c.episodes for c in runs),
        "base.decisions": sum(
            len((c.run_dir / "episodes.jsonl").read_text().splitlines()) for c in runs
        ),
    }


def print_table(rows: tuple[metrics.Metric, ...], values: dict, spreads: dict) -> None:
    for m in rows:
        if m.name not in values:
            print(f"  {m.name:34s} {'n/a':>14s} {m.unit:6s} not run on this workload")
            continue
        extra = ""
        if m.name in spreads:
            s = spreads[m.name]
            extra = f" [q1 {s['q1']:.4f} q3 {s['q3']:.4f} n={s['n']}]"
        if m.name == "failed_share":
            extra = f" [base: {int(values['attempted'])} attempted]"
        print(f"  {m.name:34s} {values[m.name]:14.6f} {m.unit:6s} {m.note}{extra}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="tollgate CLI benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ladder-horizon", type=int, default=6, help="ladder decision layers")
    p.add_argument("--ladder-width", type=int, default=80, help="ladder states per layer")
    # The tree has its own seed: trees drawn from different seeds differ by
    # about 10% in pricing work, which would swamp the run-to-run spread.
    # --seed still varies the trajectories sampled on the tree.
    p.add_argument("--ladder-seed", type=int, default=1, help="seed of the ladder tree")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "tollgate" / "cli.py").is_file():
        print(f"error: no tollgate sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if run_cli(("--help",), work).rc != 0:
        print("error: tollgate.cli does not start from src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_cmds, commands = plan(args, work)
    ledger, first, first_counts, rss = Ledger(), {}, {}, []
    setup: list[float] = []

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if not args.trace:
            # Set-up samples are spread over the loop, so that they see the
            # same host speed as the passes they sit between.
            for _ in range(SETUP_PER_PASS):
                cmd = setup_cmds[len(setup) % len(setup_cmds)]
                outcome = run_cli(cmd.args, work)
                ledger.add(cmd.label, check_command(cmd, outcome, first))
                setup.append(outcome.wall_s)
                rss.append(outcome.rss_mb)
        passes.append(run_pass(commands, traced, work, ledger, first, first_counts, rss))
        if len(passes) >= 2 and time.perf_counter() - start >= args.seconds:
            break

    oracle = None
    if args.workload == "ladder":
        run_dir = commands[0].run_dir
        problems, checked, eligible = checks.oracle_spot_check(
            run_dir, ORACLE_KEYS_PER_LAYER, args.seed
        )
        oracle = {"problems": problems, "keys_checked": checked, "keys_eligible": eligible}
        ledger.add("oracle spot-check " + commands[0].label, problems)

    if args.trace:
        rows = metrics.PER_LAYER
        values, spreads = per_layer(passes), {}
    else:
        rows = metrics.END_TO_END
        values, spreads = end_to_end(setup, passes, rss, ledger)
        values.update(artifact_counts(commands), attempted=ledger.attempted)

    info = machine()
    print(f"tollgate benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} passes={len(passes)}")
    print("machine: " + json.dumps(info, sort_keys=True))
    for label, problems in ledger.records:
        print(f"check {label}: " + ("ok" if not problems else "FAILED: " + "; ".join(problems)))
    if oracle is not None:
        print(f"oracle spot-check: {oracle['keys_checked']} of {oracle['keys_eligible']} "
              "eligible keys recomputed")
    bases = [f"{k[5:]}={int(v)}" for k, v in values.items() if k.startswith("base.")]
    if bases:
        print("base counts: " + ", ".join(bases))
    if args.trace:
        pricing = sum(values[k] for k in (
            "risk.evaluate_s", "tolls.counterfactual_toll_s", "tolls.robust_s"))
        print(f"pricing share: risk + tolls self time {pricing:.3f} s of "
              f"{values['trace.commands_s']:.3f} s traced commands "
              f"({pricing / values['trace.commands_s']:.1%})")
    print("per-layer metrics (value, unit, the end-to-end metric it should move):"
          if args.trace else "end-to-end metrics (value, unit, definition):")
    print_table(rows, values, spreads)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in metrics.result_metrics(bool(args.trace))
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "args": vars(args),
        "machine": info,
        "values": values,
        "spreads": spreads,
        "checks": ledger.records,
        "oracle": oracle,
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
