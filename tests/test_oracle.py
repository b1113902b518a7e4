"""Brute-force evaluators: cross-implementation agreement and budgets."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tollgate.envmodel import Intervention, build_model
from tollgate.exceptions import EnumerationBudgetError
from tollgate.oracle import (
    EnumerationBudget,
    count_policies,
    enumerate_policies,
    enumerate_terminal_law,
    static_risk,
)
from tollgate.risk import RiskSpec, evaluate_dynamic_risk
from tollgate.envmodel import terminal_loss_distribution
from tollgate.verify import random_layered_model, random_policy
from tollgate.witnesses import payment_release_witness

ENT = RiskSpec(kind="entropic", gamma=1.0)
MEAN = RiskSpec(kind="expectation")


@pytest.mark.parametrize("module", ["scipy", "numpy"])
def test_cli_import_leaves_module_unloaded(module):
    # the CLI still imports the verify suites, which the benchmark's tracer
    # looks up among the loaded modules
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys, tollgate.cli; print({module!r} in sys.modules, 'tollgate.verify' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False True"


def test_budget_caps_must_be_positive():
    with pytest.raises(ValueError):
        EnumerationBudget(max_paths=0)


def test_point_mass_on_chain(chain_model, noop_policy):
    law = enumerate_terminal_law(chain_model, Intervention(0, "a", "noop"), noop_policy(chain_model))
    assert law == {5.0: 1.0}


def test_bernoulli_sum_four_paths(bernoulli_sum_model, noop_policy):
    law = enumerate_terminal_law(
        bernoulli_sum_model, Intervention(0, "s", "noop"), noop_policy(bernoulli_sum_model)
    )
    assert law[0.0] == pytest.approx(0.25, abs=1e-12)
    assert law[1.0] == pytest.approx(0.5, abs=1e-12)
    assert law[2.0] == pytest.approx(0.25, abs=1e-12)


def _binary_tree_model(levels: int):
    states = [{"id": "r0", "components": {"x": 0}}]
    nodes = []
    for t in range(levels):
        for i in range(2):
            if t > 0:
                states.append({"id": f"t{t}n{i}", "components": {"x": i}})
    for i in range(2):
        states.append({"id": f"leaf{i}", "components": {"x": i}})
    for t in range(levels):
        here = ["r0"] if t == 0 else [f"t{t}n0", f"t{t}n1"]
        there = [f"leaf0", f"leaf1"] if t + 1 == levels else [f"t{t+1}n0", f"t{t+1}n1"]
        for s in here:
            nodes.append(
                {"time": t, "state": s, "actions": {
                    "noop": {"kernel": {there[0]: 0.375, there[1]: 0.625}},
                }}
            )
    return build_model(
        {
            "horizon": levels,
            "components": [{"name": "x", "external": True}],
            "states": states,
            "initial_state": "r0",
            "nodes": nodes,
            "terminal_losses": {"leaf0": 0.25, "leaf1": 3.5},
        }
    )


def test_twelve_level_tree_cross_agreement(noop_policy):
    model = _binary_tree_model(12)
    cont = noop_policy(model)
    iv = Intervention(0, "r0", "noop")
    fast = terminal_loss_distribution(model, iv, cont)
    slow = enumerate_terminal_law(model, iv, cont)
    assert set(fast) == set(slow)
    for loss in fast:
        assert fast[loss] == pytest.approx(slow[loss], abs=1e-12)


def test_path_budget_exceeded(noop_policy):
    model = _binary_tree_model(12)
    with pytest.raises(EnumerationBudgetError):
        enumerate_terminal_law(
            model,
            Intervention(0, "r0", "noop"),
            noop_policy(model),
            budget=EnumerationBudget(max_paths=10),
        )


def test_static_risk_formulas():
    assert static_risk({0.0: 0.5, 1.0: 0.5}, ENT) == pytest.approx(
        math.log((1 + math.e) / 2), abs=1e-12
    )
    assert static_risk({0.0: 0.25, 4.0: 0.75}, MEAN) == pytest.approx(3.0, abs=1e-12)
    es = RiskSpec(kind="conditional_es", alpha=0.5)
    assert static_risk({0.0: 0.5, 10.0: 0.5}, es) == pytest.approx(10.0, abs=1e-12)


def test_policy_enumeration_counts():
    # two decision nodes with two actions each: four policies
    spec = {
        "horizon": 2,
        "components": [{"name": "x", "external": True}],
        "states": [
            {"id": "r", "components": {"x": 0}},
            {"id": "m", "components": {"x": 1}},
            {"id": "z", "components": {"x": 2}},
        ],
        "initial_state": "r",
        "nodes": [
            {"time": 0, "state": "r", "actions": {
                "noop": {"kernel": {"m": 1.0}}, "a1": {"kernel": {"m": 1.0}},
            }},
            {"time": 1, "state": "m", "actions": {
                "noop": {"kernel": {"z": 1.0}}, "a1": {"kernel": {"z": 1.0}},
            }},
        ],
        "terminal_losses": {"z": 0.0},
    }
    model = build_model(spec)
    policies = list(enumerate_policies(model, 0, "r"))
    assert len(policies) == 4
    assert count_policies(model, 0, "r") == 4

    # a single decision node with three actions: three policies
    spec3 = {
        "horizon": 1,
        "components": [{"name": "x", "external": True}],
        "states": [
            {"id": "r", "components": {"x": 0}},
            {"id": "z", "components": {"x": 1}},
        ],
        "initial_state": "r",
        "nodes": [
            {"time": 0, "state": "r", "actions": {
                "noop": {"kernel": {"z": 1.0}},
                "a1": {"kernel": {"z": 1.0}},
                "a2": {"kernel": {"z": 1.0}},
            }},
        ],
        "terminal_losses": {"z": 0.0},
    }
    model3 = build_model(spec3)
    assert len(list(enumerate_policies(model3, 0, "r"))) == 3


def test_witness_policy_count_matches_product():
    case = payment_release_witness()
    model = case.ambiguity.models[1]
    # continuation policies after forcing the wire: the two wired nodes are
    # the only reachable decision nodes, three actions each
    n = count_policies(model, 0, "start", first_action="wire_transfer")
    assert n == 9
    assert len(list(enumerate_policies(model, 0, "start", first_action="wire_transfer"))) == 9


def test_policy_budget_exceeded():
    case = payment_release_witness()
    model = case.ambiguity.models[0]
    with pytest.raises(EnumerationBudgetError):
        list(
            enumerate_policies(
                model, 0, "start", budget=EnumerationBudget(max_policies=2)
            )
        )


def test_engine_oracle_agreement_on_random_models():
    rng = np.random.default_rng(31)
    for _ in range(25):
        model = random_layered_model(rng, max_depth=5)
        cont = random_policy(rng, model)
        action = model.actions(0, model.initial_state)[-1]
        iv = Intervention(0, model.initial_state, action)
        law = enumerate_terminal_law(model, iv, cont)
        fast = terminal_loss_distribution(model, iv, cont)
        for loss, p in law.items():
            assert fast[loss] == pytest.approx(p, abs=1e-12)
        for spec in (ENT, MEAN):
            recursive = evaluate_dynamic_risk(model, iv, cont, spec).root
            assert recursive == pytest.approx(static_risk(law, spec), abs=1e-9)
