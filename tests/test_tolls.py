"""Counterfactual tolls, robust authority pricing, witness verification."""

from __future__ import annotations

import random

import pytest

from tollgate.envmodel import Intervention, Policy, SafeDefaultMap, build_model
from tollgate.exceptions import InvalidWitnessError, ModelValidationError
from tollgate.instances import random_layered_model, random_policy
from tollgate.oracle import enumerate_policies, enumerate_terminal_law
from tollgate import risk
from tollgate.risk import PolicyValues, RiskSpec, evaluate_dynamic_risk
from tollgate.scenario import BUNDLED_SCENARIOS, bundled_scenario_path, load_scenario
from tollgate.tolls import (
    AmbiguitySet,
    WitnessSpec,
    authority_premium,
    counterfactual_toll,
    coupled_terminal_cells,
    iap_check,
    robust_capital,
    verify_witness,
)
from tollgate.witnesses import (
    _payment_continuation,
    _payment_model_spec,
    payment_release_witness,
    random_payment_witness,
    shipment_tail_witness,
)

ENT = RiskSpec(kind="entropic", gamma=1.0)
MEAN = RiskSpec(kind="expectation")
ES = RiskSpec(kind="conditional_es", alpha=0.7)
ALL_SPECS = (ENT, MEAN, ES)


def _two_outcome_model(loss_a: float, loss_b: float):
    """Two deterministic actions landing on fixed losses, plus a no-op."""
    return build_model(
        {
            "horizon": 1,
            "components": [{"name": "x", "external": True}],
            "states": [
                {"id": "r", "components": {"x": 0}},
                {"id": "za", "components": {"x": 1}},
                {"id": "zb", "components": {"x": 2}},
                {"id": "zn", "components": {"x": 0}},
            ],
            "initial_state": "r",
            "nodes": [
                {"time": 0, "state": "r", "actions": {
                    "act": {"kernel": {"za": 1.0}},
                    "alt": {"kernel": {"zb": 1.0}},
                    "noop": {"kernel": {"zn": 1.0}},
                }},
            ],
            "terminal_losses": {"za": loss_a, "zb": loss_b, "zn": 0.0},
        }
    )


def _policy_for(model):
    return Policy.from_entries(
        {(t, s): {model.actions(t, s)[0]: 1.0} for t, s in model.all_nodes()}, model
    )


def test_toll_of_safe_default_is_zero():
    model = _two_outcome_model(5.0, 2.0)
    cont = _policy_for(model)
    sdm = SafeDefaultMap.from_entries({(0, "r", "act"): "alt"}, model)
    for spec in ALL_SPECS:
        quote = counterfactual_toll(model, 0, "r", "alt", cont, spec, sdm)
        assert quote.signed_toll == 0.0
        assert quote.positive_toll == 0.0


def test_deterministic_toll_difference():
    model = _two_outcome_model(5.0, 2.0)
    cont = _policy_for(model)
    sdm = SafeDefaultMap.from_entries({(0, "r", "act"): "alt"}, model)
    for spec in ALL_SPECS:
        quote = counterfactual_toll(model, 0, "r", "act", cont, spec, sdm)
        assert quote.signed_toll == pytest.approx(3.0, abs=1e-12)
        assert quote.positive_toll == pytest.approx(3.0, abs=1e-12)
        assert quote.safe_default_used == "alt"


def test_risk_reducing_action_not_subsidised():
    model = _two_outcome_model(1.0, 2.0)
    cont = _policy_for(model)
    sdm = SafeDefaultMap.from_entries({(0, "r", "act"): "alt"}, model)
    quote = counterfactual_toll(model, 0, "r", "act", cont, MEAN, sdm)
    assert quote.signed_toll == pytest.approx(-1.0, abs=1e-12)
    assert quote.positive_toll == 0.0


def test_toll_deterministic_and_default_sensitive():
    case = payment_release_witness()
    model = case.ambiguity.models[0]
    first = counterfactual_toll(model, 0, "start", "wire_transfer", case.cont, ENT, case.sdm)
    second = counterfactual_toll(model, 0, "start", "wire_transfer", case.cont, ENT, case.sdm)
    assert first.signed_toll == second.signed_toll  # bit-identical re-evaluation
    other_sdm = SafeDefaultMap.from_entries({(0, "start", "wire_transfer"): "noop"}, model)
    other = counterfactual_toll(model, 0, "start", "wire_transfer", case.cont, ENT, other_sdm)
    assert other.signed_toll != first.signed_toll
    assert other.safe_default_used == "noop"


def _every_key(model):
    return [(t, s, a) for t, s in model.all_nodes() for a in model.actions(t, s)]


def _assert_shared_tolls_match_fresh(model, cont, spec, sdm, reference_values):
    shared = PolicyValues(model, cont, spec)
    for t, s, a in _every_key(model):
        quote = counterfactual_toll(model, t, s, a, cont, spec, sdm, values=shared)
        fresh = counterfactual_toll(model, t, s, a, cont, spec, sdm)
        d = sdm.default_for(t, s, a)
        ref = (
            reference_values(model, cont, spec, (t, s), forced=Intervention(t, s, a))[(t, s)]
            - reference_values(model, cont, spec, (t, s), forced=Intervention(t, s, d))[(t, s)]
        )
        assert quote.signed_toll == fresh.signed_toll == ref
        assert quote == fresh


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_shared_values_price_bundled_scenarios_bit_for_bit(name, reference_values):
    sc = load_scenario(bundled_scenario_path(name))
    for spec in (sc.risk_spec,) + ALL_SPECS:
        _assert_shared_tolls_match_fresh(
            sc.model, sc.policy, spec, sc.safe_defaults, reference_values
        )


def test_shared_values_price_random_trees_bit_for_bit(reference_values):
    rng = random.Random(43)
    for _ in range(15):
        model = random_layered_model(rng, max_depth=5)
        cont = random_policy(rng, model)
        sdm = SafeDefaultMap({(t, s, a): "noop" for t, s, a in _every_key(model)})
        for spec in ALL_SPECS:
            _assert_shared_tolls_match_fresh(model, cont, spec, sdm, reference_values)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_shared_values_value_each_node_once(name, monkeypatch):
    sc = load_scenario(bundled_scenario_path(name))
    calls = []
    sigma = risk._sigma
    monkeypatch.setattr(risk, "_sigma", lambda *args: calls.append(1) or sigma(*args))
    shared = PolicyValues(sc.model, sc.policy, sc.risk_spec)
    keys = _every_key(sc.model)
    first_valued = []
    for t, s, a in keys:
        for act in (a, sc.safe_defaults.default_for(t, s, a)):
            iv = Intervention(t, s, act)
            got = evaluate_dynamic_risk(sc.model, iv, sc.policy, sc.risk_spec, values=shared)
            first_valued += [node for node in got.values if node != (t, s)]
    # two one-step valuations per key plus one per decision node below a root
    decision_nodes = [node for node in shared.memo if node[0] < sc.model.horizon]
    assert len(calls) == 2 * len(keys) + len(decision_nodes)
    assert first_valued == list(shared.memo)


def test_shared_values_reject_a_mismatch():
    rng = random.Random(44)
    model = random_layered_model(rng, max_depth=3)
    cont = random_policy(rng, model)
    iv = Intervention(0, model.initial_state, "noop")
    shared = PolicyValues(model, cont, ENT)
    equal_spec = RiskSpec(kind="entropic", gamma=1.0)
    assert (
        evaluate_dynamic_risk(model, iv, cont, equal_spec, values=shared).root
        == evaluate_dynamic_risk(model, iv, cont, ENT).root
    )
    twin = random_layered_model(random.Random(44), max_depth=3)
    twin_cont = random_policy(rng, model)
    for args in [(twin, iv, cont, ENT), (model, iv, twin_cont, ENT), (model, iv, cont, MEAN)]:
        with pytest.raises(ModelValidationError):
            evaluate_dynamic_risk(*args, values=shared)
    with pytest.raises(ModelValidationError):
        counterfactual_toll(
            model, 0, model.initial_state, "noop", cont, MEAN, SafeDefaultMap({}), values=shared
        )


def test_pathwise_dominance_orders_tolls():
    rng = random.Random(41)
    for _ in range(10):
        model = random_layered_model(rng, max_depth=4)
        cont = random_policy(rng, model)
        action = model.actions(0, model.initial_state)[0]
        iv = Intervention(0, model.initial_state, action)
        lo = {s: rng.uniform(0, 5) for s in model.terminal_states}
        hi = {s: v + rng.uniform(0, 2) for s, v in lo.items()}
        for spec in ALL_SPECS:
            r_lo = evaluate_dynamic_risk(model.replaced(losses=lo), iv, cont, spec).root
            r_hi = evaluate_dynamic_risk(model.replaced(losses=hi), iv, cont, spec).root
            assert r_lo <= r_hi + 1e-9


def test_dominated_action_pays_no_more():
    # two actions sharing one safe default, one landing pathwise below the
    # other: its signed toll can never exceed the dominating action's
    model = build_model(
        {
            "horizon": 1,
            "components": [{"name": "x", "external": True}],
            "states": [
                {"id": "r", "components": {"x": 0}},
                {"id": "low", "components": {"x": 1}},
                {"id": "high", "components": {"x": 2}},
                {"id": "zero", "components": {"x": 3}},
            ],
            "initial_state": "r",
            "nodes": [
                {"time": 0, "state": "r", "actions": {
                    "small": {"kernel": {"low": 1.0}},
                    "large": {"kernel": {"high": 1.0}},
                    "noop": {"kernel": {"zero": 1.0}},
                }},
            ],
            "terminal_losses": {"low": 2.0, "high": 4.5, "zero": 0.0},
        }
    )
    cont = _policy_for(model)
    sdm = SafeDefaultMap.from_entries(
        {(0, "r", "small"): "noop", (0, "r", "large"): "noop"}, model
    )
    for spec in ALL_SPECS:
        toll_small = counterfactual_toll(model, 0, "r", "small", cont, spec, sdm)
        toll_large = counterfactual_toll(model, 0, "r", "large", cont, spec, sdm)
        assert toll_small.signed_toll <= toll_large.signed_toll + 1e-12


def test_toll_bounded_by_worst_losses():
    case = payment_release_witness()
    model = case.ambiguity.models[1]
    bound = max(model.terminal_losses.values())
    for action in model.actions(0, "start"):
        for spec in ALL_SPECS:
            q = counterfactual_toll(model, 0, "start", action, case.cont, spec, case.sdm)
            assert abs(q.signed_toll) <= bound + 1e-9


def test_premium_single_model():
    model = _two_outcome_model(1.0, 0.0)
    cont = _policy_for(model)
    sdm = SafeDefaultMap.from_entries({(0, "r", "act"): "alt"}, model)
    amb = AmbiguitySet(models=(model,))
    assert authority_premium(amb, 0, "r", "act", cont, MEAN, sdm) == pytest.approx(1.0)


def test_premium_takes_worst_model():
    m1 = _two_outcome_model(1.3, 1.0)
    m2 = _two_outcome_model(1.5, 1.0)
    cont = _policy_for(m1)
    sdm = SafeDefaultMap.from_entries({(0, "r", "act"): "alt"}, m1)
    amb = AmbiguitySet(models=(m1, m2))
    premium = authority_premium(amb, 0, "r", "act", cont, MEAN, sdm)
    assert premium == pytest.approx(0.5, abs=1e-12)
    # clamping per model before the sup coincides with clamping after
    diffs = [
        counterfactual_toll(m, 0, "r", "act", cont, MEAN, sdm).signed_toll for m in amb.models
    ]
    assert premium == pytest.approx(max(0.0, max(diffs)), abs=1e-12)


def test_premium_clamps_dominated_action():
    m1 = _two_outcome_model(0.5, 1.0)
    m2 = _two_outcome_model(0.2, 1.0)
    cont = _policy_for(m1)
    sdm = SafeDefaultMap.from_entries({(0, "r", "act"): "alt"}, m1)
    amb = AmbiguitySet(models=(m1, m2))
    assert authority_premium(amb, 0, "r", "act", cont, MEAN, sdm) == 0.0


def test_robust_capital_examples():
    m1 = _two_outcome_model(1.0, 0.4)
    m2 = _two_outcome_model(0.7, 1.2)
    cont = _policy_for(m1)
    amb = AmbiguitySet(models=(m1, m2))
    assert robust_capital(amb, 0, "r", ["act"], cont, MEAN) == pytest.approx(1.0)
    assert robust_capital(amb, 0, "r", ["act", "alt"], cont, MEAN) == pytest.approx(1.2)
    # a weakly dominated extra action leaves the capital unchanged
    assert robust_capital(amb, 0, "r", ["act", "alt", "noop"], cont, MEAN) == pytest.approx(1.2)
    with pytest.raises(ModelValidationError):
        robust_capital(amb, 0, "r", [], cont, MEAN)


def test_ambiguity_set_validation():
    m1 = _two_outcome_model(1.0, 0.4)
    other = build_model(
        {
            "horizon": 1,
            "components": [{"name": "x", "external": True}],
            "states": [
                {"id": "r", "components": {"x": 0}},
                {"id": "z", "components": {"x": 1}},
            ],
            "initial_state": "r",
            "nodes": [
                {"time": 0, "state": "r", "actions": {"noop": {"kernel": {"z": 1.0}}}},
            ],
            "terminal_losses": {"z": 0.0},
        }
    )
    with pytest.raises(ModelValidationError):
        AmbiguitySet(models=())
    with pytest.raises(ModelValidationError):
        AmbiguitySet(models=(m1, other))


def test_witness_spec_validation():
    with pytest.raises(ModelValidationError):
        WitnessSpec(model_index=0, event=frozenset({"g"}), min_gap=0.0, hedge_allowance=0.0)
    with pytest.raises(ModelValidationError):
        WitnessSpec(model_index=0, event=frozenset({"g"}), min_gap=1.0, hedge_allowance=1.0)


def test_coupled_cells_marginals_recover_both_laws():
    # the coupling is only a coupling if each side's marginal reproduces the
    # forced rollout law of that branch
    rng = random.Random(44)
    for _ in range(15):
        model = random_layered_model(rng, max_depth=4)
        cont = random_policy(rng, model)
        root = model.initial_state
        actions = model.actions(0, root)
        a_exec = actions[-1]
        a_def = actions[0]
        cells = coupled_terminal_cells(model, 0, root, a_exec, a_def, cont, cont)
        assert sum(p for p, _, _ in cells) == pytest.approx(1.0, abs=1e-9)
        for side, action in ((1, a_exec), (2, a_def)):
            marginal: dict[float, float] = {}
            for cell in cells:
                loss = model.terminal_loss(cell[side])
                marginal[loss] = marginal.get(loss, 0.0) + cell[0]
            law = enumerate_terminal_law(model, Intervention(0, root, action), cont)
            assert set(marginal) == set(law)
            for loss, p in law.items():
                assert marginal[loss] == pytest.approx(p, abs=1e-9)


def test_coupled_cells_align_exogenous_randomness():
    case = payment_release_witness()
    model = case.ambiguity.models[1]
    cells = coupled_terminal_cells(
        model, 0, "start", "wire_transfer", "draft_payment", case.cont, case.cont
    )
    total = sum(p for p, _, _ in cells)
    assert total == pytest.approx(1.0, abs=1e-9)
    # fraud cells pair the lost wire with the flagged draft, clear with clear
    pairs = {(le, ld): p for p, le, ld in cells}
    assert pairs[("funds_lost", "review_flagged")] == pytest.approx(0.35, abs=1e-12)
    assert pairs[("funds_settled", "invoice_pending")] == pytest.approx(0.65, abs=1e-12)


def _hedges(case):
    """Every deterministic continuation of the executed branch under the
    witness model: the hedges a certificate is judged over."""
    model = case.ambiguity.models[case.witness.model_index]
    return enumerate_policies(model, case.time, case.state, first_action=case.action)


def test_shipped_witness_all_conditions_and_premium():
    case = payment_release_witness()
    report = verify_witness(
        case.ambiguity, case.time, case.state, case.action, case.cont, ENT, case.sdm,
        case.witness, _hedges(case),
    )
    assert report.tail_gap_ok and report.hedge_resistant and report.risk_strictly_monotone
    assert report.satisfied
    assert report.policies_enumerated == 9
    assert report.event_probability == pytest.approx(0.35, abs=1e-12)
    assert authority_premium(
        case.ambiguity, case.time, case.state, case.action, case.cont, ENT, case.sdm
    ) > 0.0


def test_hedgeable_variant_fails_condition_two():
    case = payment_release_witness(recall_recovers=True)
    args = (case.ambiguity, case.time, case.state, case.action, case.cont, ENT, case.sdm,
            case.witness)
    report = verify_witness(*args, _hedges(case))
    assert report.tail_gap_ok
    assert not report.hedge_resistant
    assert report.policies_enumerated == 9
    assert report.worst_hedged_gap == pytest.approx(0.0, abs=1e-9)
    # judged over the frozen continuation alone, which never recalls the
    # transfer, the variant resists
    frozen = [_payment_continuation(case.ambiguity.models[case.witness.model_index])]
    alone = verify_witness(*args, frozen)
    assert alone.hedge_resistant and alone.policies_enumerated == 1


def test_tail_variant_splits_risk_mappings():
    case = shipment_tail_witness()
    es = RiskSpec(kind="conditional_es", alpha=0.8)
    r_es = verify_witness(
        case.ambiguity, case.time, case.state, case.action, case.cont, es, case.sdm,
        case.witness, _hedges(case),
    )
    r_ent = verify_witness(
        case.ambiguity, case.time, case.state, case.action, case.cont, ENT, case.sdm,
        case.witness, _hedges(case),
    )
    assert r_es.tail_gap_ok and r_es.hedge_resistant and not r_es.risk_strictly_monotone
    assert r_ent.satisfied
    # the shortfall mapping prices no premium here; the entropic one does
    assert authority_premium(
        case.ambiguity, case.time, case.state, case.action, case.cont, es, case.sdm
    ) == 0.0
    assert authority_premium(
        case.ambiguity, case.time, case.state, case.action, case.cont, ENT, case.sdm
    ) > 0.0


def test_zero_probability_event_is_invalid():
    case = payment_release_witness()
    bad = WitnessSpec(
        model_index=0, event=frozenset({"nothing_done"}), min_gap=1.0, hedge_allowance=0.0
    )
    with pytest.raises(InvalidWitnessError):
        verify_witness(
            case.ambiguity, case.time, case.state, case.action, case.cont, ENT, case.sdm, bad,
            _hedges(case),
        )


def test_iap_on_shipped_witness():
    case = payment_release_witness()
    chk = iap_check(
        case.ambiguity, case.time, case.state, case.base_actions, case.action,
        case.cont, ENT, case.sdm,
    )
    assert chk.premium > 0.0
    assert chk.capital_increased and chk.added_exceeds_base and chk.iff_holds


def test_iap_with_riskier_incumbent():
    case = payment_release_witness(include_legacy=True)
    chk = iap_check(
        case.ambiguity, case.time, case.state, case.base_actions, case.action,
        case.cont, ENT, case.sdm,
    )
    assert chk.premium > 0.0
    assert not chk.capital_increased and not chk.added_exceeds_base and chk.iff_holds
    assert chk.capital_extended == pytest.approx(chk.capital_base, abs=1e-12)


def test_iap_duplicate_in_law_permits_zero_premium():
    # an added action distributionally identical to an incumbent: premium may
    # be zero against that incumbent as its safe default, capital unchanged
    spec = _payment_model_spec(0.2, 10.0, 9.6, 1.0)
    spec["nodes"][0]["actions"]["wire_mirror"] = {
        "kernel": dict(spec["nodes"][0]["actions"]["wire_transfer"]["kernel"])
    }
    model = build_model(spec)
    cont = _payment_continuation(model)
    sdm = SafeDefaultMap.from_entries(
        {(0, "start", "wire_mirror"): "wire_transfer"}, model
    )
    amb = AmbiguitySet(models=(model,))
    chk = iap_check(
        amb, 0, "start", ("wire_transfer", "draft_payment", "noop"), "wire_mirror",
        cont, ENT, sdm,
    )
    assert chk.premium == 0.0
    assert chk.capital_extended == pytest.approx(chk.capital_base, abs=1e-12)
    assert chk.iff_holds


def test_iap_rejects_added_action_already_granted():
    case = payment_release_witness()
    with pytest.raises(ModelValidationError):
        iap_check(
            case.ambiguity, case.time, case.state,
            ("wire_transfer", "noop"), "wire_transfer", case.cont, ENT, case.sdm,
        )


def test_certificate_implies_positive_premium_randomised():
    rng = random.Random(42)
    satisfied = 0
    for _ in range(40):
        case = random_payment_witness(rng)
        for spec in (ENT, MEAN):
            report = verify_witness(
                case.ambiguity, case.time, case.state, case.action,
                case.cont, spec, case.sdm, case.witness, _hedges(case),
            )
            if report.satisfied:
                satisfied += 1
                assert authority_premium(
                    case.ambiguity, case.time, case.state, case.action,
                    case.cont, spec, case.sdm,
                ) > 0.0
    assert satisfied > 0


def test_max_decomposition_on_random_ambiguity_sets():
    rng = random.Random(43)
    from tollgate.instances import rekernel

    for _ in range(20):
        model = random_layered_model(rng, max_depth=4)
        root_actions = model.actions(0, model.initial_state)
        if len(root_actions) < 2:
            continue
        added = root_actions[-1]
        base = [a for a in root_actions if a != added]
        cont = random_policy(rng, model)
        amb = AmbiguitySet(models=(model, rekernel(rng, model)))
        chk = iap_check(amb, 0, model.initial_state, base, added, cont, MEAN, SafeDefaultMap({}))
        assert chk.iff_holds
