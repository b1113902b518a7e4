"""One-step mappings, the backward recursion, axiom fuzzing, and the
two-stage shortfall counterexample."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollgate import risk
from tollgate.envmodel import Intervention
from tollgate.exceptions import ModelValidationError
from tollgate.oracle import enumerate_terminal_law, static_risk
from tollgate.risk import (
    RiskSpec,
    check_axioms,
    cvar_inconsistency_demo,
    evaluate_dynamic_risk,
    evaluate_policy_risk,
    one_step_risk,
)
from tollgate.verify import random_layered_model, random_policy

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


def test_single_step_recursion_equals_one_step(coin_model, noop_policy):
    cont = noop_policy(coin_model)
    iv = Intervention(0, "start", "flip")
    root = evaluate_dynamic_risk(coin_model, iv, cont, ENT).root
    assert root == pytest.approx(math.log((1 + math.e) / 2), abs=1e-12)


def test_constant_path_is_fixed_point(chain_model, noop_policy):
    cont = noop_policy(chain_model)
    loss = {"c": 7.0}
    val = evaluate_dynamic_risk(chain_model, Intervention(0, "a", "noop"), cont, ENT, terminal_loss=loss)
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
    report = check_axioms(ENT, trials=1000, seed=11)
    assert report.all_core_passed()
    assert not report.passed("positive_homogeneity")
    cx = report.results["positive_homogeneity"].counterexample
    assert cx is not None and "scale" in cx


def test_expectation_passes_everything():
    report = check_axioms(MEAN, trials=1000, seed=12)
    assert report.all_core_passed()
    assert report.passed("positive_homogeneity")


def test_shortfall_passes_core_and_homogeneity():
    report = check_axioms(ES, trials=1000, seed=13)
    assert report.all_core_passed()
    assert report.passed("positive_homogeneity")


def test_locality_probe_trips_on_a_nonlocal_mapping(monkeypatch):
    assert check_axioms(MEAN, trials=200, seed=14).passed("locality")
    # the largest atom whatever its mass: sees the unrealised branch
    monkeypatch.setattr(risk, "_sigma", lambda spec, values, probs: max(values))
    report = check_axioms(MEAN, trials=200, seed=14)
    assert not report.passed("locality")
    assert report.results["locality"].counterexample["ghost"] > max(
        report.results["locality"].counterexample["x"]
    )


def test_engine_values_match_the_reference_recursion(reference_values):
    rng = np.random.default_rng(24)
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


def test_normalisation_direct():
    assert one_step_risk(ENT, [(0.0, 0.3), (0.0, 0.7)]) == pytest.approx(0.0, abs=1e-12)


@given(
    values=st.lists(st.floats(-20, 20), min_size=1, max_size=6),
    shift=st.floats(-10, 10),
)
@settings(max_examples=200, deadline=None)
def test_translation_invariance_one_step(values, shift):
    probs = [1.0 / len(values)] * len(values)
    for spec in (ENT, MEAN, ES):
        base = one_step_risk(spec, list(zip(values, probs)))
        moved = one_step_risk(spec, list(zip([v + shift for v in values], probs)))
        assert moved == pytest.approx(base + shift, abs=1e-9)


@given(
    values=st.lists(st.floats(0, 20), min_size=1, max_size=6),
    bumps=st.lists(st.floats(0, 5), min_size=6, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_monotonicity_one_step(values, bumps):
    probs = [1.0 / len(values)] * len(values)
    upper = [v + b for v, b in zip(values, bumps)]
    for spec in (ENT, MEAN, ES):
        lo = one_step_risk(spec, list(zip(values, probs)))
        hi = one_step_risk(spec, list(zip(upper, probs)))
        assert lo <= hi + 1e-9


@given(values=st.lists(st.floats(-10, 10), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_entropic_dominates_expectation(values):
    probs = [1.0 / len(values)] * len(values)
    pairs = list(zip(values, probs))
    assert one_step_risk(ENT, pairs) >= one_step_risk(MEAN, pairs) - 1e-9


def test_recursive_translation_invariance_on_random_trees():
    rng = np.random.default_rng(21)
    for _ in range(20):
        model = random_layered_model(rng, max_depth=5)
        cont = random_policy(rng, model)
        shift = float(rng.uniform(-3, 3))
        base_loss = {s: float(rng.uniform(0, 5)) for s in model.terminal_states}
        moved_loss = {s: v + shift for s, v in base_loss.items()}
        for spec in (ENT, MEAN, ES):
            base = evaluate_policy_risk(model, cont, spec, terminal_loss=base_loss).root
            moved = evaluate_policy_risk(model, cont, spec, terminal_loss=moved_loss).root
            assert moved == pytest.approx(base + shift, abs=1e-9)


def test_monotonicity_lift_on_random_trees():
    rng = np.random.default_rng(22)
    for _ in range(20):
        model = random_layered_model(rng, max_depth=5)
        cont = random_policy(rng, model)
        lo = {s: float(rng.uniform(0, 5)) for s in model.terminal_states}
        hi = {s: v + float(rng.uniform(0, 3)) for s, v in lo.items()}
        for spec in (ENT, MEAN, ES):
            assert (
                evaluate_policy_risk(model, cont, spec, terminal_loss=lo).root
                <= evaluate_policy_risk(model, cont, spec, terminal_loss=hi).root + 1e-9
            )


def test_entropic_strictly_monotone_in_reachable_bumps():
    # a bump on one positive-probability leaf strictly raises every ancestor
    # that can reach it and leaves every other node untouched
    rng = np.random.default_rng(23)
    for _ in range(10):
        model = random_layered_model(rng, max_depth=4)
        cont = random_policy(rng, model)
        base_loss = {s: float(rng.uniform(0, 5)) for s in model.terminal_states}
        base = evaluate_policy_risk(model, cont, ENT, terminal_loss=base_loss)
        reachable = [s for s in model.terminal_states if (model.horizon, s) in base.values]
        target = reachable[int(rng.integers(len(reachable)))]
        bumped_loss = dict(base_loss)
        bumped_loss[target] += 1.0
        bumped = evaluate_policy_risk(model, cont, ENT, terminal_loss=bumped_loss)
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


def test_cvar_demo_reverses_and_recursion_repairs():
    rec = cvar_inconsistency_demo()
    assert rec.stagewise_dominated
    assert rec.static_reversed and rec.static_gap > 0.01
    assert rec.recursive_consistent
    # expectation satisfies the tower identity on the same instance
    assert rec.expectation_static_a == pytest.approx(rec.expectation_recursive_a, abs=1e-12)
    assert rec.expectation_static_b == pytest.approx(rec.expectation_recursive_b, abs=1e-12)


def test_cvar_demo_static_values_match_oracle():
    rec = cvar_inconsistency_demo()
    es = RiskSpec(kind="conditional_es", alpha=rec.alpha)
    iv = Intervention(0, "root", "noop")
    for losses, expected in ((rec.loss_a, rec.static_a), (rec.loss_b, rec.static_b)):
        law = enumerate_terminal_law(rec.model, iv, rec.continuation, terminal_loss=losses)
        assert static_risk(law, es) == pytest.approx(expected, abs=1e-9)
