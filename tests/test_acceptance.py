"""Acceptance criteria, one test per criterion, full scale.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion as it completes. Every derived number is recomputed through the
independent oracle module before being trusted.
"""

from __future__ import annotations

import math
import time

import pytest

from tollgate.cli import main
from tollgate.envmodel import Intervention
from tollgate.gate import Gate, audit_budget_guarantee, run_episode
from tollgate.oracle import enumerate_terminal_law, static_risk
from tollgate.risk import RiskSpec, check_axioms, cvar_inconsistency_demo, evaluate_dynamic_risk
from tollgate.scenario import bundled_scenario_path, load_scenario
from tollgate.verify import gating_suite, iap_suite, no_splitting_suite, time_consistency_suite

SEED = 20260811


def _report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS {detail}")


def test_criterion_1_time_consistency_suite():
    started = time.monotonic()
    result = time_consistency_suite(SEED, models=200, axiom_trials=1000)
    elapsed = time.monotonic() - started
    ordering = {p.name: p for p in result.properties}["recursive-ordering-implication"]
    assert ordering.passed, ordering.details
    assert ordering.details["instances"] == 600  # 200 models x 3 mappings
    assert elapsed < 60.0
    _report(
        "criterion-1",
        f"recursive ordering implication held on 200 models x 3 mappings in {elapsed:.1f}s",
    )


def test_criterion_2_entropic_axioms():
    report = check_axioms(RiskSpec(kind="entropic", gamma=1.0), trials=1000, seed=SEED)
    assert report.all_core_passed()
    cx = report.results["positive_homogeneity"].counterexample
    assert cx is not None
    assert abs(cx["lhs"] - cx["rhs"]) > 1e-9
    _report(
        "criterion-2",
        f"five axioms passed 1000 fuzz trials; homogeneity broke at scale {cx['scale']}",
    )


def test_criterion_3_entropic_tower_identity():
    ent = RiskSpec(kind="entropic", gamma=1.0)
    worst = 0.0
    for name in ("payments", "database", "trading"):
        sc = load_scenario(bundled_scenario_path(name))
        for action in sc.model.actions(0, sc.model.initial_state):
            iv = Intervention(0, sc.model.initial_state, action)
            recursive = evaluate_dynamic_risk(sc.model, iv, sc.policy, ent).root
            static = static_risk(enumerate_terminal_law(sc.model, iv, sc.policy), ent)
            worst = max(worst, abs(recursive - static))
    assert worst <= 1e-9
    _report("criterion-3", f"recursive equals static on all scenarios, worst gap {worst:.2e}")


def test_criterion_4_cvar_counterexample():
    rec = cvar_inconsistency_demo()
    assert rec.stagewise_dominated
    assert rec.static_gap > 0.01
    assert rec.recursive_consistent
    es = RiskSpec(kind="conditional_es", alpha=rec.alpha)
    iv = Intervention(0, "root", "noop")
    law_a = enumerate_terminal_law(rec.model.replaced(losses=rec.loss_a), iv, rec.continuation)
    law_b = enumerate_terminal_law(rec.model.replaced(losses=rec.loss_b), iv, rec.continuation)
    assert static_risk(law_a, es) - static_risk(law_b, es) == pytest.approx(
        rec.static_gap, abs=1e-9
    )
    _report(
        "criterion-4",
        f"stagewise ordering reversed statically with gap {rec.static_gap:.4f}; "
        "recursive composition stayed consistent",
    )


def test_criterion_5_no_splitting():
    result = no_splitting_suite(SEED, tuples=500)
    by_name = {p.name: p for p in result.properties}
    assert by_name["telescoping-identity"].passed, by_name["telescoping-identity"].details
    assert by_name["path-dependence-counterexample"].passed
    assert by_name["boundary-redesign-restores-pricing"].passed
    gap = by_name["path-dependence-counterexample"].details["true_gap"]
    _report(
        "criterion-5",
        f"500 partitions telescoped to 1e-9; invisible true-toll gap {gap:.2f} "
        "vanished after boundary redesign",
    )


def test_criterion_6_irreversible_authority():
    result = iap_suite(SEED, random_sets=100, witness_draws=60)
    by_name = {p.name: p for p in result.properties}
    for prop in (
        "shipped-witness-certifies",
        "riskier-incumbent-leaves-capital-flat",
        "capital-iff-random-families",
        "certificate-implies-positive-premium",
    ):
        assert by_name[prop].passed, by_name[prop].details
    _report(
        "criterion-6",
        "witness certified with positive premium; capital iff held on 100 random "
        "ambiguity sets with exact max decomposition",
    )


def test_criterion_7_budget_guarantee_exact():
    episodes = 500
    for name in ("payments", "database", "trading"):
        sc = load_scenario(bundled_scenario_path(name))
        gate = Gate(sc.model, sc.policy, sc.gate)
        logs = [run_episode(gate, seed=SEED, episode=i) for i in range(episodes)]
        audit = audit_budget_guarantee(logs, sc.gate.exact_quoter.predict, delta=0.0)
        assert audit.overruns == 0, f"{name}: {audit.overruns} overruns"
        assert audit.violation_fraction == 0.0
        assert audit.accounting_exact
        for log in logs:
            charges = []
            prev = log.budget_initial
            for entry in log.entries:
                charges.append(prev - entry.budget_after)
                prev = entry.budget_after
            replay = log.budget_initial
            for c in charges:
                replay -= c
            assert replay == log.budget_final
            assert math.fsum(charges) == pytest.approx(
                log.budget_initial - log.budget_final, abs=1e-12
            )
    _report(
        "criterion-7",
        f"{episodes} episodes x 3 scenarios: zero overruns, charge accounting exact",
    )


def test_criterion_8_budget_guarantee_conformal():
    result = gating_suite(SEED, exact_episodes=1, calibration_episodes=500, eval_episodes=1000)
    by_name = {p.name: p for p in result.properties}
    good = by_name["conformal-envelope-budget-guarantee"]
    assert good.passed, good.details
    assert good.details["violation_fraction"] <= good.details["threshold"]
    assert good.details["overrun_fraction"] <= good.details["violation_fraction"] + 1e-12
    assert good.details["quantile_rank"] == 451  # ceil(501 * 0.9)
    assert good.details["inflation"] >= 0.0
    bad = by_name["deflated-envelope-fails-audit"]
    assert bad.passed, bad.details
    _report(
        "criterion-8",
        f"violation fraction {good.details['violation_fraction']:.4f} <= "
        f"threshold {good.details['threshold']:.4f}; deflated control failed as required",
    )


def test_criterion_9_determinism(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out in dirs:
        assert main([
            "run", "--scenario", "payments", "--episodes", "100",
            "--seed", str(SEED), "--out", str(out),
        ]) == 0
    log_a = (dirs[0] / "episodes.jsonl").read_bytes()
    log_b = (dirs[1] / "episodes.jsonl").read_bytes()
    assert log_a == log_b
    assert (dirs[0] / "summary.csv").read_bytes() == (dirs[1] / "summary.csv").read_bytes()
    _report("criterion-9", f"two runs produced byte-identical logs ({len(log_a)} bytes)")
