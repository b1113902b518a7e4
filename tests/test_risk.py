"""One-step mappings, the backward recursion, axiom fuzzing, and the
two-stage shortfall counterexample as the ``cvar-demo`` suite reports it."""

from __future__ import annotations

import math
import random
from itertools import islice

import pytest

from tollgate import risk
from tollgate.envmodel import Intervention
from tollgate.exceptions import ModelValidationError
from tollgate.instances import (
    CORE_AXIOMS,
    check_axioms,
    cvar_demo_model,
    random_layered_model,
    random_policy,
)
from tollgate.oracle import enumerate_terminal_law, static_risk
from tollgate.risk import (
    PolicyValues,
    RiskSpec,
    evaluate_dynamic_risk,
    evaluate_policy_risk,
    one_step_risk,
)
from tollgate.verify import cvar_demo_suite

ENT = RiskSpec(kind="entropic", gamma=1.0)
MEAN = RiskSpec(kind="expectation")
ES = RiskSpec(kind="conditional_es", alpha=0.7)


def test_riskspec_validation():
    with pytest.raises(Exception):
        RiskSpec(kind="entropic")
    with pytest.raises(Exception):
        RiskSpec(kind="entropic", gamma=-1.0)
    with pytest.raises(Exception):
        RiskSpec(kind="conditional_es", alpha=1.5)
    with pytest.raises(Exception):
        RiskSpec(kind="expectation", gamma=1.0)
    with pytest.raises(Exception):
        RiskSpec(kind="unknown")


def test_entropic_gamma_must_be_finite():
    with pytest.raises(ModelValidationError) as exc:
        RiskSpec(kind="entropic", gamma=math.inf)
    assert exc.value.path == "risk.gamma"


def test_one_step_examples():
    assert one_step_risk(ENT, {3.0: 1.0}) == pytest.approx(3.0, abs=1e-12)
    assert one_step_risk(ENT, {0.0: 0.5, 1.0: 0.5}) == pytest.approx(
        math.log((1 + math.e) / 2), abs=1e-12
    )
    assert one_step_risk(MEAN, {0.0: 0.5, 2.0: 0.5}) == pytest.approx(1.0, abs=1e-12)
    assert one_step_risk(RiskSpec(kind="conditional_es", alpha=0.5), {0.0: 0.5, 10.0: 0.5}) == 10.0


def test_entropic_shift_guards_overflow():
    # gamma * max(value) far beyond exp range still evaluates
    value = one_step_risk(ENT, {0.0: 0.5, 1000.0: 0.5})
    assert value == pytest.approx(1000.0 - math.log(2.0), rel=1e-12)


def test_one_step_rejects_empty():
    with pytest.raises(Exception):
        one_step_risk(ENT, {})
    for bad in (
        [(1.0, 0.0)],
        [(1.0, -0.5), (2.0, 1.5)],
        [(1.0, 0.2), (2.0, 0.2)],
        [(1.0, math.nan)],
    ):
        with pytest.raises(ModelValidationError):
            one_step_risk(ENT, bad)


def test_one_step_ignores_zero_mass_atoms():
    # a zero-mass atom above the tail used to end the shortfall sweep early
    es_half = RiskSpec(kind="conditional_es", alpha=0.5)
    assert one_step_risk(es_half, [(10.0, 0.0), (1.0, 1.0)]) == 1.0
    # and used to set the entropic shift, underflowing the sum to log(0)
    assert one_step_risk(ENT, [(1000.0, 0.0), (0.0, 1.0)]) == 0.0
    for spec in (ENT, MEAN, ES):
        assert one_step_risk(spec, [(math.inf, 0.0), (2.0, 1.0)]) == pytest.approx(2.0, abs=1e-12)


def test_one_step_refuses_nan_values_in_any_order():
    # a NaN value made the shortfall depend on the order of the atoms
    for spec in (ENT, MEAN, ES):
        for bad in ([(math.nan, 0.5), (1.0, 0.5)], [(1.0, 0.5), (math.nan, 0.5)]):
            with pytest.raises(ModelValidationError) as exc:
                one_step_risk(spec, bad)
            assert exc.value.path == "dist"


def test_one_step_infinite_values():
    # +inf of positive mass is +inf under every mapping, even beside -inf,
    # where the entropic shift and the expectation's sum gave NaN
    for spec in (ENT, MEAN, ES):
        assert one_step_risk(spec, [(math.inf, 0.5), (1.0, 0.5)]) == math.inf
        assert one_step_risk(spec, [(math.inf, 0.5), (-math.inf, 0.5)]) == math.inf
    # -inf of positive mass keeps what each mapping makes of it
    low = [(-math.inf, 0.5), (1.0, 0.5)]
    assert one_step_risk(ENT, low) == 0.3068528194400547
    assert one_step_risk(ES, low) == 1.0
    assert one_step_risk(MEAN, low) == -math.inf


def test_single_step_recursion_equals_one_step(coin_model, noop_policy):
    cont = noop_policy(coin_model)
    iv = Intervention(0, "start", "flip")
    root = evaluate_dynamic_risk(coin_model, iv, cont, ENT).root
    assert root == pytest.approx(math.log((1 + math.e) / 2), abs=1e-12)


def test_constant_path_is_fixed_point(chain_model, noop_policy):
    cont = noop_policy(chain_model)
    loss = {"c": 7.0}
    iv = Intervention(0, "a", "noop")
    val = evaluate_dynamic_risk(chain_model.replaced(losses=loss), iv, cont, ENT)
    assert all(v == pytest.approx(7.0, abs=1e-12) for v in val.values.values())


def test_two_stage_entropic_matches_static(bernoulli_sum_model, noop_policy):
    cont = noop_policy(bernoulli_sum_model)
    iv = Intervention(0, "s", "noop")
    root = evaluate_dynamic_risk(bernoulli_sum_model, iv, cont, ENT).root
    expected = 2 * math.log((1 + math.e) / 2)
    assert root == pytest.approx(expected, abs=1e-12)
    law = enumerate_terminal_law(bernoulli_sum_model, iv, cont)
    assert root == pytest.approx(static_risk(law, ENT), abs=1e-9)


def test_terminal_values_equal_losses(bernoulli_sum_model, noop_policy):
    cont = noop_policy(bernoulli_sum_model)
    val = evaluate_policy_risk(bernoulli_sum_model, cont, ES)
    for (t, s), v in val.values.items():
        if t == bernoulli_sum_model.horizon:
            assert v == bernoulli_sum_model.terminal_loss(s)


def test_entropic_axioms_pass_and_homogeneity_fails():
    fails = check_axioms(ENT, seed=11)
    assert all(fails[name] is None for name in CORE_AXIOMS)
    cx = fails["positive_homogeneity"]
    assert cx is not None and "scale" in cx


def test_expectation_passes_everything():
    fails = check_axioms(MEAN, seed=12)
    assert list(fails) == [*CORE_AXIOMS, "positive_homogeneity"]
    assert all(cx is None for cx in fails.values())


def test_shortfall_passes_core_and_homogeneity():
    fails = check_axioms(ES, seed=13)
    assert list(fails) == [*CORE_AXIOMS, "positive_homogeneity"]
    assert all(cx is None for cx in fails.values())


def test_locality_probe_trips_on_a_nonlocal_mapping(monkeypatch):
    assert check_axioms(MEAN, seed=14)["locality"] is None
    # the largest atom whatever its mass: sees the unrealised branch
    monkeypatch.setattr(risk, "_sigma", lambda spec, values, probs: max(values))
    cx = check_axioms(MEAN, seed=14)["locality"]
    assert cx is not None
    assert cx["ghost"] > max(cx["x"])


def test_engine_values_match_the_reference_recursion(reference_values):
    rng = random.Random(24)
    for _ in range(20):
        model = random_layered_model(rng, max_depth=5)
        cont = random_policy(rng, model)
        for spec in (ENT, MEAN, ES):
            root = (0, model.initial_state)
            expected = reference_values(model, cont, spec, root)
            got = evaluate_policy_risk(model, cont, spec)
            assert list(got.values.items()) == list(expected.items())
            for t, s in model.all_nodes():
                for a in model.actions(t, s):
                    iv = Intervention(t, s, a)
                    got = evaluate_dynamic_risk(model, iv, cont, spec)
                    expected = reference_values(model, cont, spec, (t, s), forced=iv)
                    assert list(got.values.items()) == list(expected.items())
                    assert got.root == expected[(t, s)]


def test_shared_values_report_the_nodes_each_call_valued_first():
    # every key of a tree priced off one PolicyValues, in a shuffled order:
    # each call's values are the memo's entries from its start on, in memo
    # order, then its root
    rng = random.Random(25)
    for _ in range(20):
        model = random_layered_model(rng, max_depth=5)
        cont = random_policy(rng, model)
        spec = rng.choice((ENT, MEAN, ES))
        shared = PolicyValues(model, cont, spec)
        keys = [(t, s, a) for t, s in model.all_nodes() for a in model.actions(t, s)]
        rng.shuffle(keys)
        for key in keys:
            before = len(shared.memo)
            got = evaluate_dynamic_risk(model, Intervention(*key), cont, spec, values=shared)
            expected = dict(islice(shared.memo.items(), before, None))
            expected[key[:2]] = got.root
            assert list(got.values.items()) == list(expected.items())


def test_normalisation_direct():
    assert one_step_risk(ENT, [(0.0, 0.3), (0.0, 0.7)]) == pytest.approx(0.0, abs=1e-12)


def _float_lists(rng: random.Random, lo: float, hi: float, min_size: int = 1):
    """Lists of floats in ``[lo, hi]`` to check a one-step property on: the
    fixed edge cases first, one-item lists of each bound and of each signed
    zero and a list of all four, then 200 lists of ``min_size`` to 6 items
    drawn from ``rng``."""
    edges = [lo, hi, 0.0, -0.0]
    yield from ([v] for v in edges)
    yield edges
    for _ in range(200):
        yield [rng.uniform(lo, hi) for _ in range(rng.randint(min_size, 6))]


def test_translation_invariance_one_step():
    rng = random.Random(31)
    for values in _float_lists(rng, -20.0, 20.0):
        probs = [1.0 / len(values)] * len(values)
        for shift in (-10.0, 10.0, 0.0, -0.0, rng.uniform(-10.0, 10.0)):
            for spec in (ENT, MEAN, ES):
                base = one_step_risk(spec, list(zip(values, probs)))
                moved = one_step_risk(spec, list(zip([v + shift for v in values], probs)))
                assert moved == pytest.approx(base + shift, abs=1e-9), (values, shift)


def test_monotonicity_one_step():
    rng = random.Random(32)
    for values in _float_lists(rng, 0.0, 20.0):
        probs = [1.0 / len(values)] * len(values)
        for bump in (0.0, 5.0, -0.0, None):
            bumps = [rng.uniform(0.0, 5.0) if bump is None else bump for _ in values]
            upper = [v + b for v, b in zip(values, bumps)]
            for spec in (ENT, MEAN, ES):
                lo = one_step_risk(spec, list(zip(values, probs)))
                hi = one_step_risk(spec, list(zip(upper, probs)))
                assert lo <= hi + 1e-9, (values, bumps)


def test_entropic_dominates_expectation():
    rng = random.Random(33)
    for values in _float_lists(rng, -10.0, 10.0, min_size=2):
        probs = [1.0 / len(values)] * len(values)
        pairs = list(zip(values, probs))
        assert one_step_risk(ENT, pairs) >= one_step_risk(MEAN, pairs) - 1e-9, values


def test_recursive_translation_invariance_on_random_trees():
    rng = random.Random(21)
    for _ in range(20):
        model = random_layered_model(rng, max_depth=5)
        cont = random_policy(rng, model)
        shift = rng.uniform(-3, 3)
        # base losses in (3, 8) keep every moved loss >= 0, as a model requires
        base_loss = {s: rng.uniform(3, 8) for s in model.terminal_states}
        moved_loss = {s: v + shift for s, v in base_loss.items()}
        for spec in (ENT, MEAN, ES):
            base = evaluate_policy_risk(model.replaced(losses=base_loss), cont, spec).root
            moved = evaluate_policy_risk(model.replaced(losses=moved_loss), cont, spec).root
            assert moved == pytest.approx(base + shift, abs=1e-9)


def test_monotonicity_lift_on_random_trees():
    rng = random.Random(22)
    for _ in range(20):
        model = random_layered_model(rng, max_depth=5)
        cont = random_policy(rng, model)
        lo = {s: rng.uniform(0, 5) for s in model.terminal_states}
        hi = {s: v + rng.uniform(0, 3) for s, v in lo.items()}
        for spec in (ENT, MEAN, ES):
            assert (
                evaluate_policy_risk(model.replaced(losses=lo), cont, spec).root
                <= evaluate_policy_risk(model.replaced(losses=hi), cont, spec).root + 1e-9
            )


def test_entropic_strictly_monotone_in_reachable_bumps():
    # a bump on one positive-probability leaf strictly raises every ancestor
    # that can reach it and leaves every other node untouched
    rng = random.Random(23)
    for _ in range(10):
        model = random_layered_model(rng, max_depth=4)
        cont = random_policy(rng, model)
        base_loss = {s: rng.uniform(0, 5) for s in model.terminal_states}
        base = evaluate_policy_risk(model.replaced(losses=base_loss), cont, ENT)
        reachable = [s for s in model.terminal_states if (model.horizon, s) in base.values]
        target = rng.choice(reachable)
        bumped_loss = dict(base_loss)
        bumped_loss[target] += 1.0
        bumped = evaluate_policy_risk(model.replaced(losses=bumped_loss), cont, ENT)
        probs = _reach_probability(model, cont, target)
        for node, v in base.values.items():
            if node[0] == model.horizon:
                continue
            if probs.get(node, 0.0) > 1e-12:
                assert bumped.values[node] > v + 1e-12
            else:
                assert bumped.values[node] == pytest.approx(v, abs=1e-12)


def _reach_probability(model, cont, leaf):
    # probability of finishing in `leaf` from each node under the policy
    memo = {}

    def prob(t, s):
        if t == model.horizon:
            return 1.0 if s == leaf else 0.0
        if (t, s) not in memo:
            memo[(t, s)] = sum(
                p * prob(t + 1, nxt) for nxt, p in model.effective_next(t, s, cont)
            )
        return memo[(t, s)]

    prob(0, model.initial_state)
    return memo


def _cvar_demo_properties() -> dict:
    return {p.name: p for p in cvar_demo_suite(seed=0).properties}


def test_cvar_demo_reverses_and_recursion_repairs():
    props = _cvar_demo_properties()
    assert props["stagewise-ordering-holds"].passed
    assert props["static-reading-reverses"].details["gap"] > 0.01
    assert props["recursive-composition-consistent"].passed
    # expectation satisfies the tower identity on the same instance
    tower = props["expectation-tower-no-reversal"].details
    assert tower["static"] == pytest.approx(tower["recursive"], abs=1e-12)


def test_cvar_demo_static_values_match_oracle():
    # the suite's two loss maps, valued statically through the oracle's
    # enumerated terminal laws
    static = _cvar_demo_properties()["static-reading-reverses"].details
    model, cont = cvar_demo_model()
    es = RiskSpec(kind="conditional_es", alpha=0.7)
    iv = Intervention(0, "root", "noop")
    loss_a = {"broad_hit": 10.0, "broad_miss": 0.0, "narrow_hit": 10.0, "narrow_miss": 0.0}
    loss_b = {"broad_hit": 10.0, "broad_miss": 0.0, "narrow_hit": 1.7, "narrow_miss": 1.7}
    oracle = [
        static_risk(enumerate_terminal_law(model.replaced(losses=loss), iv, cont), es)
        for loss in (loss_a, loss_b)
    ]
    assert oracle[0] == pytest.approx(static["static_a"], abs=1e-9)
    assert oracle[1] == pytest.approx(static["static_b"], abs=1e-9)
    assert oracle[0] - oracle[1] == pytest.approx(static["gap"], abs=1e-9)
