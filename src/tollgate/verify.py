"""Property suites behind the ``verify`` CLI command and the acceptance
tests.

Each suite bundles the brute-force checks for one structural claim:
consistency of the recursive risk process, the telescoping of boundary
tolls, the authority-premium certificate, the budget guarantee of the gate,
and the two-stage shortfall counterexample. Suites are deterministic given a
seed and return machine-readable reports carrying counterexample payloads on
failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .boundary import (
    PotentialSpec,
    path_dependence_counterexample,
    random_partition,
    splitting_invariance_check,
)
from .envelope import Envelope, scaled_predictor
from .envmodel import EnvironmentModel, Intervention, Policy, SafeDefaultMap, build_model
from .gate import audit_budget_guarantee, run_episode
from .oracle import enumerate_terminal_law, static_risk
from .risk import RiskSpec, check_axioms, cvar_inconsistency_demo, evaluate_policy_risk, evaluate_dynamic_risk
from .runio import episode_json_lines
from .scenario import (
    Scenario,
    build_gate_config,
    bundled_scenario_path,
    calibrate_conformal,
    load_scenario,
    make_exact_envelope,
)
from .tolls import authority_premium, iap_check, verify_witness
from .witnesses import payment_release_witness, random_payment_witness, shipment_tail_witness

if TYPE_CHECKING:
    import numpy as np

_TOL = 1e-9


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteResult:
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
# random instance generation


def random_layered_model(
    rng: np.random.Generator, max_depth: int = 6, max_branch: int = 3
) -> EnvironmentModel:
    """Layered tree with random kernels and losses, null action everywhere."""
    depth = int(rng.integers(2, max_depth + 1))
    sizes = [1] + [int(rng.integers(1, 4)) for _ in range(depth)]
    layer_states = [[f"t{t}s{i}" for i in range(n)] for t, n in enumerate(sizes)]
    states = [
        {"id": sid, "components": {"x": i}}
        for t, layer in enumerate(layer_states)
        for i, sid in enumerate(layer)
    ]
    nodes = []
    for t in range(depth):
        for sid in layer_states[t]:
            n_actions = int(rng.integers(1, max_branch + 1))
            actions = {}
            for j in range(n_actions):
                name = "noop" if j == 0 else f"a{j}"
                support_size = int(rng.integers(1, min(3, len(layer_states[t + 1])) + 1))
                targets = rng.choice(len(layer_states[t + 1]), size=support_size, replace=False)
                raw = rng.random(support_size) + 0.05
                probs = raw / raw.sum()
                actions[name] = {
                    "kernel": {
                        layer_states[t + 1][int(k)]: float(p)
                        for k, p in zip(targets, probs)
                    }
                }
            nodes.append({"time": t, "state": sid, "actions": actions})
    losses = {sid: float(rng.uniform(0.0, 5.0)) for sid in layer_states[depth]}
    return build_model(
        {
            "horizon": depth,
            "components": [{"name": "x", "external": True}],
            "states": states,
            "initial_state": layer_states[0][0],
            "null_action": "noop",
            "nodes": nodes,
            "terminal_losses": losses,
        }
    )


def random_policy(rng: np.random.Generator, model: EnvironmentModel) -> Policy:
    entries = {}
    for t, s in model.all_nodes():
        actions = model.actions(t, s)
        raw = rng.random(len(actions)) + 0.05
        probs = raw / raw.sum()
        entries[(t, s)] = {a: float(p) for a, p in zip(actions, probs)}
    return Policy.from_entries(entries, model)


def _random_loss_pair(
    rng: np.random.Generator, model: EnvironmentModel, ordered: bool
) -> tuple[dict[str, float], dict[str, float]]:
    leaves = model.terminal_states
    x = {s: float(rng.uniform(0.0, 5.0)) for s in leaves}
    if ordered:
        y = {s: x[s] + float(rng.uniform(0.0, 3.0)) for s in leaves}
    else:
        y = {s: float(rng.uniform(0.0, 5.0)) for s in leaves}
    return x, y


def consistency_violations(
    model: EnvironmentModel,
    cont: Policy,
    spec: RiskSpec,
    loss_x: Mapping[str, float],
    loss_y: Mapping[str, float],
    tol: float = _TOL,
) -> list[dict]:
    """Nodes where the recursive ordering implication fails: the premise
    holds at every node of a later time yet some earlier node flips."""
    vx = evaluate_policy_risk(model, cont, spec, terminal_loss=loss_x).values
    vy = evaluate_policy_risk(model, cont, spec, terminal_loss=loss_y).values
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
                if vx[n] > vy[n] + tol:
                    out.append(
                        {"node": n, "later_time": later, "vx": vx[n], "vy": vy[n]}
                    )
    return out


# ---------------------------------------------------------------------------
# suites


def _reference_scenarios() -> list[Scenario]:
    return [load_scenario(bundled_scenario_path(name)) for name in ("payments", "database", "trading")]


def time_consistency_suite(
    seed: int, models: int = 200, axiom_trials: int = 1000
) -> SuiteResult:
    import numpy as np

    rng = np.random.default_rng(seed)
    specs = (
        RiskSpec(kind="expectation"),
        RiskSpec(kind="entropic", gamma=1.0),
        RiskSpec(kind="conditional_es", alpha=0.7),
    )

    violations = []
    tower_worst = 0.0
    limit_worst = 0.0
    checked = 0
    for _ in range(models):
        model = random_layered_model(rng)
        cont = random_policy(rng, model)
        ordered = bool(rng.random() < 0.5)
        loss_x, loss_y = _random_loss_pair(rng, model, ordered)
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

    ent_report = check_axioms(RiskSpec(kind="entropic", gamma=1.0), axiom_trials, seed)
    mean_report = check_axioms(RiskSpec(kind="expectation"), axiom_trials, seed + 1)
    es_report = check_axioms(RiskSpec(kind="conditional_es", alpha=0.7), axiom_trials, seed + 2)

    props = [
        PropertyResult(
            "recursive-ordering-implication",
            passed=not violations,
            details={"instances": checked, "violations": violations[:5]},
        ),
        PropertyResult(
            "entropic-axioms",
            passed=ent_report.all_core_passed()
            and not ent_report.passed("positive_homogeneity")
            and ent_report.results["positive_homogeneity"].counterexample is not None,
            details={
                "core_passed": ent_report.all_core_passed(),
                "homogeneity_counterexample": ent_report.results["positive_homogeneity"].counterexample,
            },
        ),
        PropertyResult(
            "comparison-mapping-axioms",
            passed=mean_report.all_core_passed()
            and mean_report.passed("positive_homogeneity")
            and es_report.all_core_passed()
            and es_report.passed("positive_homogeneity"),
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
    record = cvar_inconsistency_demo()
    # re-derive both sides through the independent evaluators
    iv = Intervention(0, "root", "noop")
    law_a = enumerate_terminal_law(record.model, iv, record.continuation, terminal_loss=record.loss_a)
    law_b = enumerate_terminal_law(record.model, iv, record.continuation, terminal_loss=record.loss_b)
    es = RiskSpec(kind="conditional_es", alpha=record.alpha)
    oracle_static_a = static_risk(law_a, es)
    oracle_static_b = static_risk(law_b, es)

    props = [
        PropertyResult(
            "stagewise-ordering-holds",
            passed=record.stagewise_dominated,
            details={"stage_a": record.stage_values_a, "stage_b": record.stage_values_b},
        ),
        PropertyResult(
            "static-reading-reverses",
            passed=record.static_reversed and record.static_gap > 0.01,
            details={
                "static_a": record.static_a,
                "static_b": record.static_b,
                "gap": record.static_gap,
                "oracle_gap": oracle_static_a - oracle_static_b,
            },
        ),
        PropertyResult(
            "oracle-agrees-with-static-values",
            passed=abs(oracle_static_a - record.static_a) <= _TOL
            and abs(oracle_static_b - record.static_b) <= _TOL,
            details={"oracle_a": oracle_static_a, "oracle_b": oracle_static_b},
        ),
        PropertyResult(
            "recursive-composition-consistent",
            passed=record.recursive_consistent,
            details={"recursive_a": record.recursive_a, "recursive_b": record.recursive_b},
        ),
        PropertyResult(
            "expectation-tower-no-reversal",
            passed=abs(record.expectation_static_a - record.expectation_recursive_a) <= 1e-12
            and abs(record.expectation_static_b - record.expectation_recursive_b) <= 1e-12,
            details={
                "static": [record.expectation_static_a, record.expectation_static_b],
                "recursive": [record.expectation_recursive_a, record.expectation_recursive_b],
            },
        ),
    ]
    return SuiteResult(suite="cvar-demo", seed=seed, properties=tuple(props))


def _random_potential(rng: np.random.Generator) -> PotentialSpec:
    import numpy as np

    kind = rng.choice(("linear", "power", "piecewise_convex"))
    d = int(rng.integers(1, 4))
    if kind == "linear":
        return PotentialSpec(kind="linear", weights=tuple(rng.uniform(0.0, 3.0, size=d)))
    if kind == "power":
        return PotentialSpec(
            kind="power",
            weights=tuple(rng.uniform(0.0, 3.0, size=d)),
            exponent=float(rng.uniform(1.0, 3.0)),
        )
    knots = []
    for _ in range(d):
        xs = np.cumsum(rng.uniform(0.5, 3.0, size=4))
        slopes = np.cumsum(rng.uniform(0.0, 2.0, size=4))
        ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(np.concatenate([[0.0], xs])))])
        pts = [(0.0, 0.0)] + [(float(x), float(y)) for x, y in zip(xs, ys[1:])]
        knots.append(tuple(pts))
    return PotentialSpec(kind="piecewise_convex", knots=tuple(knots))


def no_splitting_suite(
    seed: int, tuples: int = 500, inject_fault: bool = False
) -> SuiteResult:
    import numpy as np

    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    nonneg_ok = True
    marginal_ok = True
    for _ in range(tuples):
        pot = _random_potential(rng)
        d = pot.dimension
        start = rng.uniform(0.0, 4.0, size=d)
        total = rng.uniform(0.0, 6.0, size=d)
        partitions = [
            random_partition(rng, total, int(rng.integers(1, 6))) for _ in range(3)
        ]
        if inject_fault:
            report_gap, bad = _faulty_sequence_gap(pot, start, total, partitions)
            if report_gap > worst:
                worst, worst_case = report_gap, bad
            continue
        report = splitting_invariance_check(
            pot, tuple(start), tuple(total), partitions, adversary_trials=2, seed=int(rng.integers(2**31))
        )
        gap = max(report.max_gap, report.adversary_max_gap)
        if gap > worst:
            worst = gap
            worst_case = {"potential": pot.kind, "gap": gap}
        if any(t < -1e-12 for t in report.partition_tolls):
            nonneg_ok = False
        # convex marginal monotonicity: a fixed increment never gets cheaper
        # at higher cumulative exposure
        if pot.kind == "power":
            from .boundary import boundary_toll

            inc = rng.uniform(0.0, 2.0, size=d)
            low = tuple(start)
            high = tuple(start + rng.uniform(0.0, 3.0, size=d))
            if boundary_toll(low, inc, pot) > boundary_toll(high, inc, pot) + _TOL:
                marginal_ok = False

    counter = path_dependence_counterexample()
    props = [
        PropertyResult(
            "telescoping-identity",
            passed=(worst <= _TOL) if not inject_fault else False,
            details={"worst_gap": worst, "worst_case": worst_case, "tuples": tuples},
        ),
        PropertyResult("toll-nonnegativity", passed=nonneg_ok, details={}),
        PropertyResult("convex-marginal-monotonicity", passed=marginal_ok, details={}),
        PropertyResult(
            "path-dependence-counterexample",
            passed=counter.true_gap > 0.01
            and counter.invisible_gap > 0.01
            and abs(counter.toll_bulk - counter.toll_split) <= _TOL,
            details={
                "true_gap": counter.true_gap,
                "invisible_gap": counter.invisible_gap,
                "lambda_bulk": counter.toll_bulk,
                "lambda_split": counter.toll_split,
            },
        ),
        PropertyResult(
            "boundary-redesign-restores-pricing",
            passed=counter.redesigned_invisible_gap <= _TOL,
            details={"residual": counter.redesigned_invisible_gap},
        ),
        PropertyResult(
            "compliant-instance-has-no-ordering-gap",
            passed=counter.compliant_ordering_max_gap <= _TOL,
            details={"orderings": counter.compliant_orderings_searched},
        ),
    ]
    return SuiteResult(suite="no-splitting", seed=seed, properties=tuple(props))


def _faulty_sequence_gap(pot, start, total, partitions):
    # fault injection for the negative control: a volume discount makes later
    # increments cheaper, which telescoping must catch
    from .boundary import boundary_toll

    reference = pot.value(tuple(start + total)) - pot.value(tuple(start))
    worst = 0.0
    bad = None
    for steps in partitions:
        exposure = tuple(start)
        tolls = 0.0
        for k, step in enumerate(steps):
            tolls += boundary_toll(exposure, step, pot) * (0.9**k)
            exposure = tuple(e + d for e, d in zip(exposure, step))
        gap = abs(tolls - reference)
        if gap > worst:
            worst = gap
            bad = {"partition": [list(s) for s in steps], "toll_sum": tolls, "reference": reference}
    return worst, bad


def iap_suite(seed: int, random_sets: int = 100, witness_draws: int = 60) -> SuiteResult:
    import numpy as np

    rng = np.random.default_rng(seed)
    ent = RiskSpec(kind="entropic", gamma=1.0)

    shipped = payment_release_witness()
    report = verify_witness(
        shipped.ambiguity, shipped.time, shipped.state, shipped.action,
        shipped.cont, ent, shipped.sdm, shipped.witness,
    )
    premium = authority_premium(
        shipped.ambiguity, shipped.time, shipped.state, shipped.action,
        shipped.cont, ent, shipped.sdm,
    )
    shipped_check = iap_check(
        shipped.ambiguity, shipped.time, shipped.state, shipped.base_actions,
        shipped.action, shipped.cont, ent, shipped.sdm,
    )

    hedged = payment_release_witness(recall_recovers=True)
    hedged_report = verify_witness(
        hedged.ambiguity, hedged.time, hedged.state, hedged.action,
        hedged.cont, ent, hedged.sdm, hedged.witness,
    )

    tail = shipment_tail_witness()
    es = RiskSpec(kind="conditional_es", alpha=0.8)
    tail_es = verify_witness(
        tail.ambiguity, tail.time, tail.state, tail.action, tail.cont, es, tail.sdm, tail.witness
    )
    tail_ent = verify_witness(
        tail.ambiguity, tail.time, tail.state, tail.action, tail.cont, ent, tail.sdm, tail.witness
    )

    legacy = payment_release_witness(include_legacy=True)
    legacy_check = iap_check(
        legacy.ambiguity, legacy.time, legacy.state, legacy.base_actions,
        legacy.action, legacy.cont, ent, legacy.sdm,
    )
    legacy_premium = authority_premium(
        legacy.ambiguity, legacy.time, legacy.state, legacy.action, legacy.cont, ent, legacy.sdm
    )

    iff_failures = []
    decomp_worst = 0.0
    for _ in range(random_sets):
        model = random_layered_model(rng, max_depth=4)
        root_actions = model.actions(0, model.initial_state)
        if len(root_actions) < 2:
            continue
        added = str(rng.choice(root_actions))
        base = [a for a in root_actions if a != added]
        cont = random_policy(rng, model)
        variants = [model] + [
            _rekernel(rng, model) for _ in range(int(rng.integers(1, 3)))
        ]
        from .tolls import AmbiguitySet

        amb = AmbiguitySet(models=tuple(variants))
        sdm = SafeDefaultMap({})
        spec = (ent, RiskSpec(kind="expectation"), RiskSpec(kind="conditional_es", alpha=0.7))[
            int(rng.integers(0, 3))
        ]
        chk = iap_check(amb, 0, model.initial_state, base, added, cont, spec, sdm)
        decomp_worst = max(decomp_worst, chk.max_decomposition_gap)
        if not chk.iff_holds:
            iff_failures.append({"added": added, "report": chk.__dict__})

    implication_failures = []
    satisfied_count = 0
    for _ in range(witness_draws):
        case = random_payment_witness(rng)
        for spec in (ent, RiskSpec(kind="expectation")):
            rep = verify_witness(
                case.ambiguity, case.time, case.state, case.action,
                case.cont, spec, case.sdm, case.witness,
            )
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
            passed=report.satisfied and premium > 0.0,
            details={
                "conditions": [report.tail_gap_ok, report.hedge_resistant, report.risk_strictly_monotone],
                "premium": premium,
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
            passed=legacy_premium > 0.0
            and not legacy_check.capital_increased
            and not legacy_check.added_exceeds_base
            and legacy_check.iff_holds
            and legacy_check.max_decomposition_gap <= _TOL,
            details={
                "premium": legacy_premium,
                "capital_base": legacy_check.capital_base,
                "capital_extended": legacy_check.capital_extended,
            },
        ),
        PropertyResult(
            "capital-iff-random-families",
            passed=not iff_failures and decomp_worst <= _TOL,
            details={"failures": iff_failures[:3], "worst_decomposition_gap": decomp_worst,
                     "sets": random_sets},
        ),
        PropertyResult(
            "certificate-implies-positive-premium",
            passed=not implication_failures and satisfied_count > 0,
            details={"satisfied_draws": satisfied_count, "failures": implication_failures[:3]},
        ),
    ]
    return SuiteResult(suite="iap", seed=seed, properties=tuple(props))


def _rekernel(rng: np.random.Generator, model: EnvironmentModel) -> EnvironmentModel:
    """Same skeleton, jittered kernels (support preserved)."""
    import numpy as np

    nodes = []
    for t, s in model.all_nodes():
        actions = {}
        for a in model.actions(t, s):
            row = model.kernel(t, s, a)
            raw = np.asarray([p for _, p in row]) + rng.uniform(0.01, 0.5, size=len(row))
            probs = raw / raw.sum()
            actions[a] = {"kernel": {nxt: float(p) for (nxt, _), p in zip(row, probs)}}
        nodes.append({"time": t, "state": s, "actions": actions})
    sids = set(model.terminal_losses)
    for t, s in model.all_nodes():
        sids.add(s)
        for a in model.actions(t, s):
            for nxt, _ in model.kernel(t, s, a):
                sids.add(nxt)
    spec = {
        "horizon": model.horizon,
        "components": [{"name": "x", "external": True}],
        "states": [{"id": s, "components": model.state_record(s)} for s in sorted(sids, key=model.state_index)],
        "initial_state": model.initial_state,
        "null_action": model.null_action,
        "nodes": nodes,
        "terminal_losses": model.terminal_losses,
    }
    return build_model(spec)


def gating_suite(
    seed: int,
    exact_episodes: int = 500,
    calibration_episodes: int = 500,
    eval_episodes: int = 1000,
    delta: float = 0.1,
    determinism_episodes: int = 50,
) -> SuiteResult:
    props: list[PropertyResult] = []
    scenarios = _reference_scenarios()

    exact = [make_exact_envelope(sc) for sc in scenarios]
    for sc, env in zip(scenarios, exact):
        cfg = build_gate_config(sc, env, exact_quoter=env)
        logs = [
            run_episode(sc.model, sc.policy, cfg, seed=seed, episode=i)
            for i in range(exact_episodes)
        ]
        audit = audit_budget_guarantee(logs, env.predict, delta=0.0)
        counts: dict[str, int] = {}
        for log in logs:
            for verdict, k in log.decision_counts().items():
                counts[verdict] = counts.get(verdict, 0) + k
        props.append(
            PropertyResult(
                f"exact-envelope-budget-guarantee[{sc.name}]",
                passed=audit.passed and audit.overruns == 0 and audit.accounting_exact,
                details={
                    "episodes": audit.episodes,
                    "overruns": audit.overruns,
                    "decision_mix": counts,
                },
            )
        )

    sc, env = scenarios[0], exact[0]
    cfg = build_gate_config(sc, env, exact_quoter=env)
    runs = []
    for _ in range(2):
        logs = [
            run_episode(sc.model, sc.policy, cfg, seed=seed + 17, episode=i)
            for i in range(determinism_episodes)
        ]
        runs.append("\n".join(episode_json_lines(logs)))
    props.append(
        PropertyResult(
            "episode-determinism",
            passed=runs[0] == runs[1],
            details={"episodes": determinism_episodes},
        )
    )

    conformal, _ = calibrate_conformal(
        sc, env, calibration_episodes, delta, seed=seed + 1000, training_episodes=200
    )
    eval_cfg = build_gate_config(sc, conformal, exact_quoter=env, budget_override=50.0)
    eval_logs = [
        run_episode(sc.model, sc.policy, eval_cfg, seed=seed + 2000, episode=i)
        for i in range(eval_episodes)
    ]
    audit = audit_budget_guarantee(eval_logs, env.predict, delta=delta)
    props.append(
        PropertyResult(
            "conformal-envelope-budget-guarantee",
            passed=audit.passed
            and audit.violation_fraction <= audit.threshold
            and audit.overrun_fraction <= audit.violation_fraction + 1e-12,
            details={
                "violation_fraction": audit.violation_fraction,
                "threshold": audit.threshold,
                "overrun_fraction": audit.overrun_fraction,
                "inflation": conformal.inflation,
                "quantile_rank": conformal.calibration_meta["quantile_rank"],
            },
        )
    )

    deflated = Envelope(kind="conformal", predict=scaled_predictor(conformal.predict, 0.2))
    bad_cfg = build_gate_config(sc, deflated, exact_quoter=env, budget_override=50.0)
    bad_logs = [
        run_episode(sc.model, sc.policy, bad_cfg, seed=seed + 3000, episode=i)
        for i in range(min(eval_episodes, 300))
    ]
    bad_audit = audit_budget_guarantee(bad_logs, env.predict, delta=delta)
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
    """CLI name -> (suite function, scale keywords it takes), in ``all``
    order. Built per call, so a rebound suite function takes effect."""
    return {
        "time-consistency": (time_consistency_suite, ("models", "axiom_trials")),
        "cvar-demo": (cvar_demo_suite, ()),
        "no-splitting": (no_splitting_suite, ("tuples",)),
        "iap": (iap_suite, ("random_sets", "witness_draws")),
        "gating": (
            gating_suite,
            ("exact_episodes", "calibration_episodes", "eval_episodes", "delta"),
        ),
    }


SUITES = tuple(_suite_table())


def run_suite(name: str, seed: int, **scale) -> list[SuiteResult]:
    """Dispatch one suite by CLI name, or every suite for ``all``."""
    table = _suite_table()
    if name != "all" and name not in table:
        raise ValueError(f"unknown suite {name!r}")
    return [
        fn(seed, **{k: scale[k] for k in keys if k in scale})
        for suite, (fn, keys) in table.items()
        if name in ("all", suite)
    ]
