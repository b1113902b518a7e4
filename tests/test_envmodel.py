"""Environment model construction, rollout laws, side-effect classification."""

from __future__ import annotations

import random

import pytest

from tollgate.envmodel import (
    Intervention,
    Policy,
    SafeDefaultMap,
    build_model,
    is_side_effect_bearing,
)
from tollgate.exceptions import (
    ModelValidationError,
    PolicyUndefinedError,
    UnreachableNodeError,
)
from tollgate.oracle import enumerate_terminal_law
from tollgate.risk import RiskSpec, evaluate_dynamic_risk
from tollgate.witnesses import payment_release_witness

MEAN = RiskSpec(kind="expectation")


def _minimal_spec(**overrides):
    spec = {
        "horizon": 1,
        "components": [{"name": "x", "external": True}],
        "states": [
            {"id": "s0", "components": {"x": 0}},
            {"id": "s1", "components": {"x": 1}},
            {"id": "s2", "components": {"x": 2}},
        ],
        "initial_state": "s0",
        "nodes": [
            {"time": 0, "state": "s0", "actions": {
                "noop": {"kernel": {"s1": 0.5, "s2": 0.5}},
            }},
        ],
        "terminal_losses": {"s1": 0.0, "s2": 1.0},
    }
    spec.update(overrides)
    return spec


def test_minimal_model_builds():
    model = build_model(_minimal_spec())
    assert model.horizon == 1
    assert model.actions(0, "s0") == ("noop",)
    assert model.terminal_loss("s2") == 1.0


_FLIP = (0, "start", "flip")


def test_replaced_swaps_only_the_given_rows_and_losses(coin_model):
    variant = coin_model.replaced(
        rows={_FLIP: {"lose": 0.25, "win": 0.75}}, losses={"lose": 3.0}
    )
    assert variant.kernel(0, "start", "flip") == (("win", 0.75), ("lose", 0.25))
    assert variant.kernel(0, "start", "noop") == coin_model.kernel(0, "start", "noop")
    assert variant.terminal_losses == {"win": 0.0, "lose": 3.0}
    assert variant.actions(0, "start") == coin_model.actions(0, "start")
    assert [variant.external_signature(s) for s in ("start", "win", "lose")] == [(0,), (0,), (1,)]
    # the base model is untouched
    assert coin_model.kernel(0, "start", "flip") == (("win", 0.5), ("lose", 0.5))
    assert coin_model.terminal_losses == {"win": 0.0, "lose": 1.0}


@pytest.mark.parametrize(
    "kwargs, message, path",
    [
        ({"rows": {_FLIP: {"win": 0.5}}}, "kernel row sums", "nodes[0,start].actions[flip].kernel"),
        ({"rows": {_FLIP: {"start": 1.0}}}, "no terminal loss", "nodes[0,start].actions[flip]"),
        (
            {"rows": {_FLIP: {"win": -0.5, "lose": 1.5}}},
            "kernel probability must be finite",
            "nodes[0,start].actions[flip].kernel.win",
        ),
        (
            {"losses": {"lose": float("inf")}},
            "terminal loss must be finite",
            "terminal_losses[lose]",
        ),
        (
            {"losses": {"lose": -1.0}, "losses_path": "v.loss_overrides"},
            "terminal loss must be finite",
            "v.loss_overrides[lose]",
        ),
        (
            {"rows": {_FLIP: {"win": 2.0}}, "paths": {_FLIP: "v.rows[0]"}},
            "kernel row sums",
            "v.rows[0].kernel",
        ),
    ],
    ids=["row-sum", "target-not-a-leaf", "negative-probability", "infinite-loss", "loss-path",
         "row-path"],
)
def test_replaced_applies_the_build_rules(coin_model, kwargs, message, path):
    with pytest.raises(ModelValidationError, match=message) as err:
        coin_model.replaced(**kwargs)
    assert (err.value.code, err.value.path) == ("invariant", path)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rows": {(0, "start", "ghost"): {"win": 1.0}}},
        {"rows": {(1, "win", "noop"): {"win": 1.0}}},
        {"losses": {"start": 1.0}},
    ],
    ids=["unknown-action", "unknown-node", "not-a-leaf"],
)
def test_replaced_refuses_keys_the_model_lacks(coin_model, kwargs):
    with pytest.raises(UnreachableNodeError):
        coin_model.replaced(**kwargs)


def test_kernel_row_sum_is_a_distinct_error():
    spec = _minimal_spec()
    spec["nodes"][0]["actions"]["noop"]["kernel"] = {"s1": 0.5, "s2": 0.4}
    with pytest.raises(ModelValidationError, match="kernel row sums to 0.9") as err:
        build_model(spec)
    assert (err.value.code, err.value.path) == ("invariant", "nodes[0].actions[noop].kernel")


def test_negative_loss_is_a_distinct_error():
    spec = _minimal_spec(terminal_losses={"s1": 0.0, "s2": -1.0})
    with pytest.raises(ModelValidationError, match="terminal loss must be finite and >= 0") as err:
        build_model(spec)
    assert (err.value.code, err.value.path) == ("invariant", "terminal_losses[s2]")


def test_safe_default_outside_action_set_is_a_distinct_error():
    spec = _minimal_spec()
    spec["nodes"][0]["actions"]["send"] = {"kernel": {"s2": 1.0}}
    model = build_model(spec)
    with pytest.raises(ModelValidationError, match="safe default 'draft' is not available") as err:
        SafeDefaultMap.from_entries({(0, "s0", "send"): "draft"}, model)
    assert (err.value.code, err.value.path) == ("invariant", "safe_defaults[0,s0,send]")


def test_missing_null_action_rejected():
    spec = _minimal_spec()
    spec["nodes"][0]["actions"] = {"flip": {"kernel": {"s1": 1.0}}}
    with pytest.raises(ModelValidationError):
        build_model(spec)


def test_duplicate_state_rejected():
    spec = _minimal_spec()
    spec["states"].append({"id": "s1", "components": {"x": 9}})
    with pytest.raises(ModelValidationError):
        build_model(spec)


def test_deterministic_chain_gives_point_mass(chain_model, noop_policy):
    law = enumerate_terminal_law(
        chain_model, Intervention(0, "a", "noop"), noop_policy(chain_model)
    )
    assert law == {5.0: 1.0}


def test_single_kernel_row_law(coin_model, noop_policy):
    law = enumerate_terminal_law(
        coin_model, Intervention(0, "start", "flip"), noop_policy(coin_model)
    )
    assert law == {0.0: 0.5, 1.0: 0.5}


def test_bernoulli_sum_law(bernoulli_sum_model, noop_policy):
    law = enumerate_terminal_law(
        bernoulli_sum_model, Intervention(0, "s", "noop"), noop_policy(bernoulli_sum_model)
    )
    assert law[0.0] == pytest.approx(0.25, abs=1e-12)
    assert law[1.0] == pytest.approx(0.5, abs=1e-12)
    assert law[2.0] == pytest.approx(0.25, abs=1e-12)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)


def test_unreachable_intervention_rejected(coin_model, noop_policy):
    with pytest.raises(UnreachableNodeError):
        evaluate_dynamic_risk(
            coin_model, Intervention(0, "nowhere", "flip"), noop_policy(coin_model), MEAN
        )
    with pytest.raises(UnreachableNodeError):
        evaluate_dynamic_risk(
            coin_model, Intervention(0, "start", "missing"), noop_policy(coin_model), MEAN
        )


def test_policy_undefined_on_reachable_node(chain_model):
    partial = Policy.deterministic({(0, "a"): "noop"})
    with pytest.raises(PolicyUndefinedError):
        evaluate_dynamic_risk(chain_model, Intervention(0, "a", "noop"), partial, MEAN)


def test_law_normalised_on_random_models():
    import random

    from tollgate.instances import random_layered_model, random_policy

    rng = random.Random(55)
    for _ in range(25):
        model = random_layered_model(rng)
        cont = random_policy(rng, model)
        for action in model.actions(0, model.initial_state):
            law = enumerate_terminal_law(
                model, Intervention(0, model.initial_state, action), cont
            )
            assert abs(sum(law.values()) - 1.0) <= 1e-12
            assert all(loss in model.terminal_losses.values() for loss in law)


def test_law_matches_monte_carlo_frequencies(bernoulli_sum_model, noop_policy):
    # exact law versus 1e5 sampled rollouts, three-sigma binomial bands
    model = bernoulli_sum_model
    cont = noop_policy(model)
    law = enumerate_terminal_law(model, Intervention(0, "s", "noop"), cont)
    n = 100_000
    rng = random.Random(20260811)
    counts: dict[float, int] = {}
    for _ in range(n):
        state = "s"
        for t in range(model.horizon):
            row = model.effective_next(t, state, cont)
            u = rng.random()
            acc = 0.0
            for nxt, p in row:
                acc += p
                if u <= acc:
                    state = nxt
                    break
        loss = model.terminal_loss(state)
        counts[loss] = counts.get(loss, 0) + 1
    for loss, prob in law.items():
        sigma = (prob * (1 - prob) / n) ** 0.5
        assert abs(counts.get(loss, 0) / n - prob) <= 3 * sigma + 1e-9


def test_side_effect_classification():
    case = payment_release_witness()
    model = case.ambiguity.models[0]
    # moving external money differs from the no-op on external components
    assert is_side_effect_bearing(model, 0, "start", "wire_transfer")
    # drafting only flips the internal workflow phase
    assert not is_side_effect_bearing(model, 0, "start", "draft_payment")
    # the no-op is never side-effect-bearing anywhere
    for t, s in model.all_nodes():
        assert not is_side_effect_bearing(model, t, s, model.null_action)
    # identical kernel to the no-op: not side-effect-bearing
    assert not is_side_effect_bearing(model, 1, "wired_fraud", "release")


def test_safe_default_idempotent_and_stable():
    case = payment_release_witness()
    sdm = case.sdm
    first = sdm.default_for(0, "start", "wire_transfer")
    assert first == "draft_payment"
    # the image maps to itself and answers never change on re-query
    assert sdm.default_for(0, "start", first) == first
    for _ in range(3):
        assert sdm.default_for(0, "start", "wire_transfer") == first


def test_safe_default_must_be_idempotent():
    model = build_model(_minimal_spec())
    spec = _minimal_spec()
    spec["nodes"][0]["actions"]["a"] = {"kernel": {"s1": 1.0}}
    spec["nodes"][0]["actions"]["b"] = {"kernel": {"s2": 1.0}}
    model = build_model(spec)
    with pytest.raises(ModelValidationError, match="safe default 'b' must map to itself") as err:
        SafeDefaultMap.from_entries(
            {(0, "s0", "a"): "b", (0, "s0", "b"): "a"}, model
        )
    assert (err.value.code, err.value.path) == ("invariant", "safe_defaults[0,s0,a]")
