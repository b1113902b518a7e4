"""Command-line surface: run, verify, calibrate, report.

Exit codes: 0 on success, 1 when a verification property fails or an
internal error occurs, 2 for usage, parse, and validation problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import runio
from .exceptions import ModelValidationError, RunArtifactError, ScenarioError, TollgateError
from .gate import Gate, audit_budget_guarantee, run_episode
from .scenario import (
    BUNDLED_SCENARIOS,
    Scenario,
    bundled_scenario_path,
    calibrate_conformal,
    config_hash,
    load_scenario,
    resolve_scenario,
)
from .verify import SUITES, run_suite


def _nonneg_int(text: str) -> int:
    """``--seed`` and ``--episodes``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _scenario_from_arg(arg: str) -> Scenario:
    path = Path(arg)
    if not path.exists() and arg in BUNDLED_SCENARIOS:
        path = bundled_scenario_path(arg)
    return load_scenario(path)


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario_from_arg(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cfg = scenario.gate
    envelope_record: dict = {"kind": "exact"}
    if scenario.envelope_config["kind"] == "conformal":
        delta = scenario.envelope_config["delta"]
        n = scenario.envelope_config["calibration_episodes"]
        train = scenario.envelope_config["training_episodes"]
        envelope, _ = calibrate_conformal(
            scenario, n, delta, seed=seed + 10_000, training_episodes=train
        )
        cfg = replace(cfg, envelope=envelope)
        envelope_record = {
            "kind": "conformal",
            "delta": delta,
            "inflation": envelope.inflation,
            "quantile_rank": envelope.calibration_meta["quantile_rank"],
            "calibration_episodes": n,
        }

    gate = Gate(scenario.model, scenario.policy, cfg)
    logs = [run_episode(gate, seed=seed, episode=i) for i in range(args.episodes)]
    # the logs keep the entries and records they share; the rest of the
    # trie is freed before the writers allocate theirs
    del gate
    runio.write_episode_logs(out_dir, logs)
    runio.write_summary_csv(out_dir, logs)
    runio.write_boundary_log(out_dir, logs)
    runio.write_manifest(
        out_dir,
        scenario.name,
        scenario.raw,
        config_hash(scenario),
        seed,
        args.episodes,
        envelope_record,
    )
    print(f"wrote {args.episodes} episode(s) to {out_dir}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, args.seed)
    report = {"results": [r.to_dict() for r in results]}
    print(json.dumps(report, indent=2, default=str))
    return 0 if all(r.passed for r in results) else 1


def cmd_calibrate(args: argparse.Namespace) -> int:
    scenario = _scenario_from_arg(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    training_episodes = 200
    envelope, rows = calibrate_conformal(
        scenario, args.episodes, args.delta, seed=seed, training_episodes=training_episodes
    )
    runio.write_calibration_csv(out_dir / "calibration.csv", rows)
    quantile_rank = envelope.calibration_meta["quantile_rank"]
    meta = {
        "scenario": scenario.name,
        "config_hash": config_hash(scenario),
        "delta": args.delta,
        "samples": args.episodes,
        "training_episodes": training_episodes,
        "inflation": envelope.inflation,
        "quantile_rank": quantile_rank,
        "seed": seed,
    }
    (out_dir / "envelope.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"inflation={envelope.inflation!r} quantile_rank={quantile_rank}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Audit a run directory through :func:`audit_budget_guarantee`, the
    same audit the gating suite runs, with delta taken from the manifest.
    A directory whose stored scenario does not hash to its recorded
    ``config_hash``, or whose artifacts disagree on its episodes, is
    refused."""
    run_dir = Path(args.out)
    manifest = runio.read_manifest(run_dir)
    scenario = resolve_scenario(manifest["scenario_document"])
    digest = config_hash(scenario)
    if digest != manifest["config_hash"]:
        raise RunArtifactError(
            f"{runio.MANIFEST_NAME} holds a scenario document that hashes to {digest[:12]}, "
            f"not to its config_hash {manifest['config_hash'][:12]}"
        )
    budget = scenario.gate.initial_budget
    logs = runio.read_episode_logs(run_dir, budget)
    if len(logs) != manifest["episodes"]:
        raise RunArtifactError(
            f"manifest records {manifest['episodes']} episode(s) but "
            f"{runio.SUMMARY_NAME} has {len(logs)}"
        )
    if not logs:
        print(f"run of scenario {manifest['scenario_name']!r}: zero episodes, nothing to audit")
        return 0

    envelope = manifest["envelope"]
    delta = envelope["delta"] if envelope["kind"] == "conformal" else 0.0
    audit = audit_budget_guarantee(logs, scenario.gate.exact_quoter.predict, delta)
    mix = Counter(e.verdict for log in logs for e in log.entries)
    finals = [log.budget_final for log in logs]
    print(f"scenario            : {manifest['scenario_name']} (hash {manifest['config_hash'][:12]})")
    print(f"episodes            : {manifest['episodes']}")
    print(f"decision mix        : " + ", ".join(f"{k.value}={v}" for k, v in sorted(mix.items())))
    print(f"initial budget      : {budget}")
    print(f"final budget        : min={min(finals):.6f} mean={sum(finals)/len(finals):.6f}")
    covered, quotes = audit.quotes_covered, audit.quotes
    print(f"coverage estimate   : {covered}/{quotes} quotes covered ({covered/quotes:.4f})")
    verdict = "PASS" if audit.passed else "FAIL"
    print(
        f"budget guarantee    : {audit.overruns} overrun episode(s), "
        f"fraction {audit.overrun_fraction:.4f} -> {verdict}"
    )
    return 0 if audit.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tollgate",
        description="Actuarial runtime for agent actions on finite sandbox models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="gate episodes of a scenario and write artifacts")
    p_run.add_argument("--scenario", required=True, help="scenario path or bundled name")
    p_run.add_argument("--episodes", type=_nonneg_int, default=100)
    p_run.add_argument("--seed", type=_nonneg_int, default=None, help="defaults to the scenario seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), required=True)
    p_verify.add_argument("--seed", type=_nonneg_int, default=20260811)
    p_verify.set_defaults(func=cmd_verify)

    p_cal = sub.add_parser("calibrate", help="fit the conformal envelope from frozen rollouts")
    p_cal.add_argument("--scenario", required=True)
    p_cal.add_argument("--episodes", type=_nonneg_int, default=500, help="calibration episodes")
    p_cal.add_argument("--delta", type=float, default=0.1)
    p_cal.add_argument("--seed", type=_nonneg_int, default=None)
    p_cal.add_argument("--out", required=True)
    p_cal.set_defaults(func=cmd_calibrate)

    p_rep = sub.add_parser("report", help="summarise a run directory")
    p_rep.add_argument("--out", required=True, help="run directory to read")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ModelValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TollgateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: missing or unreadable run artifacts ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
