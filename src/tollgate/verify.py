"""Property suites behind the ``verify`` CLI command and the acceptance
tests.

Each suite bundles the brute-force checks for one structural claim:
consistency of the recursive risk process, the telescoping of boundary
tolls, the authority-premium certificate, the budget guarantee of the gate,
and the two-stage shortfall counterexample. Suites are deterministic given a
seed and return machine-readable reports carrying counterexample payloads on
failure. The instances they run on come from :mod:`tollgate.instances`.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import threading
from typing import Mapping, NamedTuple, Sequence

# The path-dependence check reaches boundary._sequence_toll, and the exact-tier
# gating properties gate.gate_step, through their modules at call time, so a
# fault patched into either reaches them too.
from . import boundary, gate
from .boundary import PotentialSpec, boundary_toll, splitting_invariance_check
from .envmodel import EnvironmentModel, Intervention, Policy, SafeDefaultMap
from .gate import EpisodeLog, Gate, audit_budget_guarantee, run_episode
from .instances import (
    _TOL,
    CORE_AXIOMS,
    check_axioms,
    cvar_demo_model,
    random_layered_model,
    random_loss_pair,
    random_partition,
    random_policy,
    random_potential,
    rekernel,
    scaled_predictor,
    uniforms,
)
from .oracle import enumerate_gated_paths, enumerate_policies, enumerate_terminal_law, static_risk
from .risk import RiskSpec, evaluate_dynamic_risk, evaluate_policy_risk, one_step_risk
from .runio import episode_json_lines
from .scenario import (
    Scenario,
    bundled_scenario_path,
    calibrate_conformal,
    load_scenario,
)
from .tolls import AmbiguitySet, WitnessReport, authority_premium, iap_check, verify_witness
from .witnesses import (
    WitnessCase, payment_release_witness, random_payment_witness, shipment_tail_witness,
)

# miss rate at which the gating suite calibrates and audits the conformal tier
_CONFORMAL_DELTA = 0.1

# sizes that a suite both runs at and prints in its details
_SPLIT_TUPLES = 500
_IAP_RANDOM_SETS = 100
_DETERMINISM_EPISODES = 50


class PropertyResult(NamedTuple):
    name: str
    passed: bool
    details: dict


class SuiteResult(NamedTuple):
    suite: str
    seed: int
    properties: tuple[PropertyResult, ...]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "properties": [
                {"name": p.name, "passed": p.passed, "details": p.details}
                for p in self.properties
            ],
        }


# ---------------------------------------------------------------------------
# suites


def consistency_violations(
    model: EnvironmentModel,
    cont: Policy,
    spec: RiskSpec,
    loss_x: Mapping[str, float],
    loss_y: Mapping[str, float],
) -> list[dict]:
    """Nodes where the recursive ordering implication fails: the premise
    holds at every node of a later time yet some earlier node flips."""
    vx = evaluate_policy_risk(model.replaced(losses=loss_x), cont, spec).values
    vy = evaluate_policy_risk(model.replaced(losses=loss_y), cont, spec).values
    by_time: dict[int, list[tuple[int, str]]] = {}
    for node in vx:
        by_time.setdefault(node[0], []).append(node)
    times = sorted(by_time)
    out = []
    for later in times:
        premise = all(vx[n] <= vy[n] + 1e-12 for n in by_time[later])
        if not premise:
            continue
        for earlier in times:
            if earlier >= later:
                break
            for n in by_time[earlier]:
                if vx[n] > vy[n] + _TOL:
                    out.append(
                        {"node": n, "later_time": later, "vx": vx[n], "vy": vy[n]}
                    )
    return out


def _reference_scenarios() -> list[Scenario]:
    return [load_scenario(bundled_scenario_path(name)) for name in ("payments", "database", "trading")]


def time_consistency_suite(seed: int) -> SuiteResult:
    rng = random.Random(seed)
    specs = (
        RiskSpec(kind="expectation"),
        RiskSpec(kind="entropic", gamma=1.0),
        RiskSpec(kind="conditional_es", alpha=0.7),
    )

    violations = []
    tower_worst = 0.0
    limit_worst = 0.0
    checked = 0
    for _ in range(200):
        model = random_layered_model(rng)
        cont = random_policy(rng, model)
        loss_x, loss_y = random_loss_pair(rng, model, ordered=rng.random() < 0.5)
        for spec in specs:
            bad = consistency_violations(model, cont, spec, loss_x, loss_y)
            checked += 1
            if bad:
                violations.append({"spec": spec.describe(), "cases": bad[:3]})

        # entropic recursion must reproduce the static functional of the law
        root_action = model.actions(0, model.initial_state)[0]
        iv = Intervention(0, model.initial_state, root_action)
        ent = RiskSpec(kind="entropic", gamma=1.0)
        recursive = evaluate_dynamic_risk(model, iv, cont, ent).root
        law = enumerate_terminal_law(model, iv, cont)
        tower_worst = max(tower_worst, abs(recursive - static_risk(law, ent)))

        # vanishing-gamma limit collapses to expectation
        small = RiskSpec(kind="entropic", gamma=1e-4)
        mean = RiskSpec(kind="expectation")
        near = evaluate_dynamic_risk(model, iv, cont, small).root
        exact = evaluate_dynamic_risk(model, iv, cont, mean).root
        losses = model.terminal_losses.values()
        span = max(losses) - min(losses)
        # zero-range instances are exact up to rounding amplified by 1/gamma
        bound = max(1e-3 * span * span, 1e-10)
        limit_worst = max(limit_worst, abs(near - exact) / bound)

    tower_scenarios = []
    for sc in _reference_scenarios():
        ent = RiskSpec(kind="entropic", gamma=1.0)
        for action in sc.model.actions(0, sc.model.initial_state):
            iv = Intervention(0, sc.model.initial_state, action)
            recursive = evaluate_dynamic_risk(sc.model, iv, sc.policy, ent).root
            law = enumerate_terminal_law(sc.model, iv, sc.policy)
            gap = abs(recursive - static_risk(law, ent))
            tower_scenarios.append({"scenario": sc.name, "action": action, "gap": gap})
    tower_scenario_worst = max(row["gap"] for row in tower_scenarios)

    ent_fails = check_axioms(RiskSpec(kind="entropic", gamma=1.0), seed)
    mean_fails = check_axioms(RiskSpec(kind="expectation"), seed + 1)
    es_fails = check_axioms(RiskSpec(kind="conditional_es", alpha=0.7), seed + 2)
    ent_core_held = all(ent_fails[name] is None for name in CORE_AXIOMS)

    props = [
        PropertyResult(
            "recursive-ordering-implication",
            passed=not violations,
            details={"instances": checked, "violations": violations[:5]},
        ),
        PropertyResult(
            "entropic-axioms",
            passed=ent_core_held and ent_fails["positive_homogeneity"] is not None,
            details={
                "core_passed": ent_core_held,
                "homogeneity_counterexample": ent_fails["positive_homogeneity"],
            },
        ),
        PropertyResult(
            "comparison-mapping-axioms",
            passed=all(cx is None for cx in (*mean_fails.values(), *es_fails.values())),
            details={},
        ),
        PropertyResult(
            "entropic-tower-identity",
            passed=tower_worst <= _TOL and tower_scenario_worst <= _TOL,
            details={
                "worst_random_gap": tower_worst,
                "worst_scenario_gap": tower_scenario_worst,
            },
        ),
        PropertyResult(
            "entropic-vanishing-gamma-limit",
            passed=limit_worst <= 1.0,
            details={"worst_ratio_of_bound": limit_worst},
        ),
    ]
    return SuiteResult(suite="time-consistency", seed=seed, properties=tuple(props))


def cvar_demo_suite(seed: int) -> SuiteResult:
    """The two-stage instance where stagewise conditional expected shortfall
    at level 0.7 and the naive time-0 static reading disagree about which of
    two losses is riskier.

    ``loss_a`` has its tail spread thinly across both stage-1 nodes, so each
    node's conditional shortfall dilutes it; ``loss_b`` concentrates enough
    conditional mass to dominate nodewise. Pooled at time 0, the ordering
    flips. Recursive composition of the same mapping, and plain expectation,
    both stay consistent on the identical instance. The static values are
    re-derived through the independent oracle.
    """
    model, cont = cvar_demo_model()
    loss_a = {"broad_hit": 10.0, "broad_miss": 0.0, "narrow_hit": 10.0, "narrow_miss": 0.0}
    loss_b = {"broad_hit": 10.0, "broad_miss": 0.0, "narrow_hit": 1.7, "narrow_miss": 1.7}
    es = RiskSpec(kind="conditional_es", alpha=0.7)
    mean = RiskSpec(kind="expectation")

    def stage_values(loss: Mapping[str, float]) -> dict[str, float]:
        return {
            node: one_step_risk(es, [(loss[nxt], p) for nxt, p in model.kernel(1, node, "noop")])
            for node in ("broad", "narrow")
        }

    def static_value(spec: RiskSpec, loss: Mapping[str, float]) -> float:
        law: dict[float, float] = {}
        for mid, p in model.kernel(0, "root", "noop"):
            for leaf, q in model.kernel(1, mid, "noop"):
                law[loss[leaf]] = law.get(loss[leaf], 0.0) + p * q
        return one_step_risk(spec, law)

    model_a, model_b = model.replaced(losses=loss_a), model.replaced(losses=loss_b)
    stage_a, stage_b = stage_values(loss_a), stage_values(loss_b)
    recursive_a = evaluate_policy_risk(model_a, cont, es).root
    recursive_b = evaluate_policy_risk(model_b, cont, es).root
    static_a, static_b = static_value(es, loss_a), static_value(es, loss_b)
    mean_static = [static_value(mean, loss_a), static_value(mean, loss_b)]
    mean_recursive = [
        evaluate_policy_risk(model_a, cont, mean).root,
        evaluate_policy_risk(model_b, cont, mean).root,
    ]

    iv = Intervention(0, "root", "noop")
    oracle_a = static_risk(enumerate_terminal_law(model_a, iv, cont), es)
    oracle_b = static_risk(enumerate_terminal_law(model_b, iv, cont), es)

    props = [
        PropertyResult(
            "stagewise-ordering-holds",
            passed=all(stage_a[s] <= stage_b[s] + _TOL for s in stage_a),
            details={"stage_a": stage_a, "stage_b": stage_b},
        ),
        PropertyResult(
            "static-reading-reverses",
            passed=static_a - static_b > 0.01,
            details={
                "static_a": static_a,
                "static_b": static_b,
                "gap": static_a - static_b,
                "oracle_gap": oracle_a - oracle_b,
            },
        ),
        PropertyResult(
            "oracle-agrees-with-static-values",
            passed=abs(oracle_a - static_a) <= _TOL and abs(oracle_b - static_b) <= _TOL,
            details={"oracle_a": oracle_a, "oracle_b": oracle_b},
        ),
        PropertyResult(
            "recursive-composition-consistent",
            passed=recursive_a <= recursive_b + _TOL,
            details={"recursive_a": recursive_a, "recursive_b": recursive_b},
        ),
        PropertyResult(
            "expectation-tower-no-reversal",
            passed=all(abs(st - rec) <= 1e-12 for st, rec in zip(mean_static, mean_recursive)),
            details={"static": mean_static, "recursive": mean_recursive},
        ),
    ]
    return SuiteResult(suite="cvar-demo", seed=seed, properties=tuple(props))


_LARGE_TRANSFER_THRESHOLD = 3.0
_REVIEW_BYPASS_PENALTY = 4.0


def _sequence_true_risk(steps: Sequence[Sequence[float]]) -> float:
    # Crafted loss rule for the path-dependence counterexample: the insured
    # loss grows with the square of total exposure, plus a review-bypass
    # penalty if any single increment reached the large-transfer threshold.
    # The second term depends on the path, not on cumulative exposure.
    total = sum(step[0] for step in steps)
    loss = 0.5 * total**2
    if any(step[0] >= _LARGE_TRANSFER_THRESHOLD for step in steps):
        loss += _REVIEW_BYPASS_PENALTY
    return loss


def no_splitting_suite(seed: int) -> SuiteResult:
    rng = random.Random(seed)
    worst = 0.0
    worst_case = None
    nonneg_ok = True
    marginal_ok = True
    for _ in range(_SPLIT_TUPLES):
        pot = random_potential(rng)
        d = pot.dimension
        start = uniforms(rng, 0.0, 4.0, d)
        total = uniforms(rng, 0.0, 6.0, d)
        partitions = [random_partition(rng, total, rng.randint(1, 5)) for _ in range(5)]
        report = splitting_invariance_check(pot, start, total, partitions)
        gap = report.max_gap
        if gap > worst:
            worst = gap
            worst_case = {"potential": pot.kind, "gap": gap}
        if any(t < -1e-12 for t in report.partition_tolls):
            nonneg_ok = False
        # convex marginal monotonicity: a fixed increment never gets cheaper
        # at higher cumulative exposure
        if pot.kind == "power":
            inc = uniforms(rng, 0.0, 2.0, d)
            high = tuple(s + u for s, u in zip(start, uniforms(rng, 0.0, 3.0, d)))
            if boundary_toll(start, inc, pot) > boundary_toll(high, inc, pot) + _TOL:
                marginal_ok = False

    # Path dependence: two payment sequences reach the same cumulative
    # exposure, so their boundary tolls agree to the last bit, yet the true
    # risk of the one with a large transfer differs by true_gap.
    sequence_toll = boundary._sequence_toll
    pot = PotentialSpec(kind="power", weights=(0.5,), exponent=2.0)
    bulk, split = ((3.0,), (1.0,)), ((2.0,), (2.0,))
    toll_bulk = sequence_toll(pot, (0.0,), bulk)
    toll_split = sequence_toll(pot, (0.0,), split)
    true_gap = _sequence_true_risk(bulk) - _sequence_true_risk(split)
    invisible = abs(true_gap - (toll_bulk - toll_split))

    # Redesign: expose the path statistic as a second dimension counting
    # large transfers, priced linearly at the bypass penalty.
    pot2 = PotentialSpec(
        kind="piecewise_convex",
        knots=(
            ((0.0, 0.0), (1.0, 0.5), (2.0, 2.0), (4.0, 8.0), (8.0, 32.0)),
            ((0.0, 0.0), (1.0, _REVIEW_BYPASS_PENALTY)),
        ),
    )

    def counted(steps):
        return tuple((x, 1.0 if x >= _LARGE_TRANSFER_THRESHOLD else 0.0) for (x,) in steps)

    redesigned_gap = (
        sequence_toll(pot2, (0.0, 0.0), counted(bulk))
        - sequence_toll(pot2, (0.0, 0.0), counted(split))
    )
    residual = abs(true_gap - redesigned_gap)

    # With the assumption satisfied (no path term), exhaustive reordering of
    # up to four increments finds no realised-toll gap.
    orderings = list(itertools.permutations([(1.0,), (1.0,), (2.0,), (0.5,)]))
    # the loss law without the path term, and the realised toll
    risks = [0.5 * sum(s[0] for s in perm) ** 2 for perm in orderings]
    tolls = [sequence_toll(pot, (0.0,), perm) for perm in orderings]
    ordering_gap = max(
        max(abs(r - risks[0]), abs(t - tolls[0])) for r, t in zip(risks, tolls)
    )

    props = [
        PropertyResult(
            "telescoping-identity",
            passed=worst <= _TOL,
            details={"worst_gap": worst, "worst_case": worst_case, "tuples": _SPLIT_TUPLES},
        ),
        PropertyResult("toll-nonnegativity", passed=nonneg_ok, details={}),
        PropertyResult("convex-marginal-monotonicity", passed=marginal_ok, details={}),
        PropertyResult(
            "path-dependence-counterexample",
            passed=true_gap > 0.01 and invisible > 0.01 and abs(toll_bulk - toll_split) <= _TOL,
            details={
                "true_gap": true_gap,
                "invisible_gap": invisible,
                "lambda_bulk": toll_bulk,
                "lambda_split": toll_split,
            },
        ),
        PropertyResult(
            "boundary-redesign-restores-pricing",
            passed=residual <= _TOL,
            details={"residual": residual},
        ),
        PropertyResult(
            "compliant-instance-has-no-ordering-gap",
            passed=ordering_gap <= _TOL,
            details={"orderings": len(orderings)},
        ),
    ]
    return SuiteResult(suite="no-splitting", seed=seed, properties=tuple(props))


def _certify(case: WitnessCase, spec: RiskSpec) -> WitnessReport:
    """The witness conditions of ``case`` under ``spec``, hedged over every
    continuation of the executed branch that the oracle enumerates."""
    model = case.ambiguity.models[case.witness.model_index]
    return verify_witness(
        case.ambiguity, case.time, case.state, case.action, case.cont, spec, case.sdm,
        case.witness, enumerate_policies(model, case.time, case.state, first_action=case.action),
    )


def iap_suite(seed: int) -> SuiteResult:
    rng = random.Random(seed)
    ent = RiskSpec(kind="entropic", gamma=1.0)

    shipped = payment_release_witness()
    report = _certify(shipped, ent)
    shipped_check = iap_check(
        shipped.ambiguity, shipped.time, shipped.state, shipped.base_actions,
        shipped.action, shipped.cont, ent, shipped.sdm,
    )

    hedged_report = _certify(payment_release_witness(recall_recovers=True), ent)

    tail = shipment_tail_witness()
    es = RiskSpec(kind="conditional_es", alpha=0.8)
    tail_es = _certify(tail, es)
    tail_ent = _certify(tail, ent)

    legacy = payment_release_witness(include_legacy=True)
    legacy_check = iap_check(
        legacy.ambiguity, legacy.time, legacy.state, legacy.base_actions,
        legacy.action, legacy.cont, ent, legacy.sdm,
    )

    iff_failures = []
    for _ in range(_IAP_RANDOM_SETS):
        model = random_layered_model(rng, max_depth=4)
        root_actions = model.actions(0, model.initial_state)
        if len(root_actions) < 2:
            continue
        added = rng.choice(root_actions)
        base = [a for a in root_actions if a != added]
        cont = random_policy(rng, model)
        variants = [model] + [
            rekernel(rng, model) for _ in range(rng.randint(1, 2))
        ]
        amb = AmbiguitySet(models=tuple(variants))
        sdm = SafeDefaultMap({})
        spec = rng.choice(
            (ent, RiskSpec(kind="expectation"), RiskSpec(kind="conditional_es", alpha=0.7))
        )
        chk = iap_check(amb, 0, model.initial_state, base, added, cont, spec, sdm)
        if not chk.iff_holds:
            iff_failures.append({"added": added, "report": chk._asdict()})

    implication_failures = []
    satisfied_count = 0
    for _ in range(60):
        case = random_payment_witness(rng)
        for spec in (ent, RiskSpec(kind="expectation")):
            rep = _certify(case, spec)
            if rep.satisfied:
                satisfied_count += 1
                prem = authority_premium(
                    case.ambiguity, case.time, case.state, case.action,
                    case.cont, spec, case.sdm,
                )
                if not prem > 0.0:
                    implication_failures.append({"spec": spec.describe(), "premium": prem})

    props = [
        PropertyResult(
            "shipped-witness-certifies",
            passed=report.satisfied and shipped_check.premium > 0.0,
            details={
                "conditions": [report.tail_gap_ok, report.hedge_resistant, report.risk_strictly_monotone],
                "premium": shipped_check.premium,
                "policies": report.policies_enumerated,
            },
        ),
        PropertyResult(
            "shipped-witness-binds-capital",
            passed=shipped_check.capital_increased
            and shipped_check.added_exceeds_base
            and shipped_check.iff_holds,
            details={"report": {
                "premium": shipped_check.premium,
                "capital_base": shipped_check.capital_base,
                "capital_extended": shipped_check.capital_extended,
            }},
        ),
        PropertyResult(
            "hedgeable-variant-fails-condition-two",
            passed=hedged_report.tail_gap_ok and not hedged_report.hedge_resistant,
            details={"worst_hedged_gap": hedged_report.worst_hedged_gap},
        ),
        PropertyResult(
            "tail-threshold-variant-splits-mappings",
            passed=(not tail_es.risk_strictly_monotone) and tail_ent.risk_strictly_monotone
            and tail_es.tail_gap_ok and tail_es.hedge_resistant,
            details={
                "es": [tail_es.tail_gap_ok, tail_es.hedge_resistant, tail_es.risk_strictly_monotone],
                "entropic": [tail_ent.tail_gap_ok, tail_ent.hedge_resistant, tail_ent.risk_strictly_monotone],
            },
        ),
        PropertyResult(
            "riskier-incumbent-leaves-capital-flat",
            passed=legacy_check.premium > 0.0
            and not legacy_check.capital_increased
            and not legacy_check.added_exceeds_base
            and legacy_check.iff_holds,
            details={
                "premium": legacy_check.premium,
                "capital_base": legacy_check.capital_base,
                "capital_extended": legacy_check.capital_extended,
            },
        ),
        PropertyResult(
            "capital-iff-random-families",
            passed=not iff_failures,
            details={"failures": iff_failures[:3], "sets": _IAP_RANDOM_SETS},
        ),
        PropertyResult(
            "certificate-implies-positive-premium",
            passed=not implication_failures and satisfied_count > 0,
            details={"satisfied_draws": satisfied_count, "failures": implication_failures[:3]},
        ),
    ]
    return SuiteResult(suite="iap", seed=seed, properties=tuple(props))


def gating_suite(seed: int) -> SuiteResult:
    props: list[PropertyResult] = []
    scenarios = _reference_scenarios()

    # the exact tier quotes the toll, so no path of the gated law may overrun
    for sc in scenarios:
        exact = Gate(sc.model, sc.policy, sc.gate)
        paths = enumerate_gated_paths(sc.model, sc.policy, gate.gate_step, sc.gate, exact.empty_ledger)
        logs = (EpisodeLog(i, entries, sc.model.terminal_loss(leaf), records)
                for i, (_, entries, leaf, records) in enumerate(paths))
        audit = audit_budget_guarantee(logs, exact, delta=0.0)
        mass = math.fsum(p for p, *_ in paths)
        props.append(
            PropertyResult(
                f"exact-envelope-budget-guarantee[{sc.name}]",
                passed=audit.passed and abs(mass - 1.0) <= 1e-12,
                details={"paths": audit.episodes, "mass": mass, "overruns": audit.overruns},
            )
        )

    sc = scenarios[0]
    runs = []
    for _ in range(2):
        # a fresh gate per run, so the rerun decides every step again
        fresh = Gate(sc.model, sc.policy, sc.gate)
        logs = [run_episode(fresh, seed=seed + 17, episode=i) for i in range(_DETERMINISM_EPISODES)]
        runs.append("\n".join(episode_json_lines(logs)))
    props.append(
        PropertyResult(
            "episode-determinism",
            passed=runs[0] == runs[1],
            details={"episodes": _DETERMINISM_EPISODES},
        )
    )

    conformal, _ = calibrate_conformal(sc, 500, _CONFORMAL_DELTA, seed=seed + 1000, training_episodes=200)
    eval_cfg = sc.gate._replace(envelope=conformal, initial_budget=50.0)
    eval_gate = Gate(sc.model, sc.policy, eval_cfg)
    eval_logs = [run_episode(eval_gate, seed=seed + 2000, episode=i) for i in range(1000)]
    audit = audit_budget_guarantee(eval_logs, eval_gate, delta=_CONFORMAL_DELTA)
    props.append(
        PropertyResult(
            "conformal-envelope-budget-guarantee",
            passed=audit.passed,
            details={
                "violation_fraction": audit.violation_fraction,
                "threshold": audit.threshold,
                "overrun_fraction": audit.overrun_fraction,
                "inflation": conformal.inflation,
                "quantile_rank": conformal.quantile_rank,
            },
        )
    )

    # the fitted inflation stays, so the 0.2 factor alone must fail the audit
    deflated = conformal._replace(predict=scaled_predictor(conformal.predict, 0.2))
    bad_cfg = eval_cfg._replace(envelope=deflated)
    bad_gate = Gate(sc.model, sc.policy, bad_cfg)
    bad_logs = [run_episode(bad_gate, seed=seed + 3000, episode=i) for i in range(300)]
    bad_audit = audit_budget_guarantee(bad_logs, bad_gate, delta=_CONFORMAL_DELTA)
    props.append(
        PropertyResult(
            "deflated-envelope-fails-audit",
            passed=not bad_audit.passed and bad_audit.violation_fraction > bad_audit.threshold,
            details={
                "violation_fraction": bad_audit.violation_fraction,
                "threshold": bad_audit.threshold,
            },
        )
    )
    return SuiteResult(suite="gating", seed=seed, properties=tuple(props))


def _suite_table() -> dict:
    """CLI name -> suite function, in ``all`` order. Built per call, so a
    rebound suite function takes effect."""
    return {
        "time-consistency": time_consistency_suite,
        "cvar-demo": cvar_demo_suite,
        "no-splitting": no_splitting_suite,
        "iap": iap_suite,
        "gating": gating_suite,
    }


SUITES = tuple(_suite_table())


def run_suite(name: str, seed: int) -> list[SuiteResult]:
    """Dispatch one suite by CLI name, or every suite for ``all``.

    Each suite is a function of the seed alone, so with more than one CPU
    the suites after the first run in a forked child (see
    :func:`_run_forked`); the results are the same, in the same order.
    """
    table = _suite_table()
    if name != "all" and name not in table:
        raise ValueError(f"unknown suite {name!r}")
    fns = [fn for suite, fn in table.items() if name in ("all", suite)]
    if len(fns) < 2 or not _can_fork():
        return [fn(seed) for fn in fns]
    return _run_forked(fns, seed)


def _can_fork() -> bool:
    """True if this process may fork a child to share the work with: the
    platform has ``os.fork`` and ``os.sched_getaffinity``, which Windows and
    macOS lack, more than one CPU is available, and no other thread runs,
    since a child could inherit a lock that one of them holds and wait on it
    forever."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    return len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1


def _run_forked(fns: list, seed: int) -> list[SuiteResult]:
    """Run ``fns[0]`` here and the later suites in turn in one forked child,
    which sends back its pickled results through a pipe.

    A child inherits this process's memory, so a fault patched in here
    reaches the suites it runs. It leaves by ``os._exit``: it flushes no
    inherited buffer and runs no exit hook. If the child returns no results,
    whatever the reason, the later suites run here again, so they raise as
    they would serially. The child is reaped, also when ``fns[0]`` raises.
    """
    import pickle

    child = _fork_suites(fns[1:], seed)
    try:
        first = fns[0](seed)
    finally:
        data = _reap(child)
    return [first, *(pickle.loads(data) if data else [fn(seed) for fn in fns[1:]])]


def _fork_suites(fns: list, seed: int) -> tuple[int, int] | None:
    """Fork a child that writes ``pickle.dumps([fn(seed) for fn in fns])``
    to a pipe and exits 0, or exits 1 without a result; ``None`` if no child
    started."""
    import pickle

    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            data = pickle.dumps([fn(seed) for fn in fns])
            with open(write, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _reap(child: tuple[int, int] | None) -> bytes | None:
    """Read a child's pipe to its end and wait for the child. The bytes
    count only if the child exited 0, that is, wrote all of them."""
    if child is None:
        return None
    pid, read = child
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return data if status == 0 else None
