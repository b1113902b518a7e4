"""Brute-force evaluators: cross-implementation agreement and budgets."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from decimal import MAX_EMAX, Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

import pytest

from tollgate.boundary import BoundaryLedger
from tollgate.envmodel import Intervention, build_model
from tollgate.exceptions import EnumerationBudgetError, ModelValidationError
from tollgate.gate import gate_step
from tollgate.instances import random_layered_model, random_policy
from tollgate.oracle import (
    EnumerationBudget,
    enumerate_gated_paths,
    enumerate_policies,
    enumerate_terminal_law,
    static_risk,
)
from tollgate.risk import RiskSpec, evaluate_dynamic_risk
from tollgate.scenario import bundled_scenario_path, load_scenario
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
    for field in EnumerationBudget._fields:
        with pytest.raises(ModelValidationError) as exc:
            EnumerationBudget(**{field: 0})
        assert exc.value.path == f"budget.{field}"


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


def test_path_budget_exceeded(noop_policy):
    model = _binary_tree_model(12)
    with pytest.raises(EnumerationBudgetError):
        enumerate_terminal_law(
            model,
            Intervention(0, "r0", "noop"),
            noop_policy(model),
            budget=EnumerationBudget(max_paths=10),
        )


def _bundled_gated_paths(name: str, budget: EnumerationBudget | None = None) -> list:
    sc = load_scenario(bundled_scenario_path(name))
    ledger = BoundaryLedger.empty(sc.gate.boundaries)
    return enumerate_gated_paths(sc.model, sc.policy, gate_step, sc.gate, ledger, budget)


@pytest.mark.parametrize("name, count", [("payments", 11), ("database", 10), ("trading", 8)])
def test_gated_paths_of_the_bundled_scenarios(name, count):
    paths = _bundled_gated_paths(name)
    assert len(paths) == count
    assert abs(math.fsum(p for p, *_ in paths) - 1.0) <= 1e-12


def test_gated_path_budget_exceeded():
    with pytest.raises(EnumerationBudgetError):
        _bundled_gated_paths("payments", EnumerationBudget(max_paths=10))


def test_gated_paths_follow_the_injected_rule_in_row_order(bernoulli_sum_model, noop_policy):
    # a rule that executes each proposal at no charge walks the ungated tree,
    # kernel rows in order; the rule is all the enumerator calls
    def executes(remaining, cfg, model, ledger, time, state, proposed, node):
        assert node == {}
        return SimpleNamespace(executed=proposed, budget_after=remaining), 0.0, ledger

    model = bernoulli_sum_model
    paths = enumerate_gated_paths(
        model, noop_policy(model), executes, SimpleNamespace(initial_budget=0.0),
        SimpleNamespace(records=()),
    )
    assert [(p, leaf) for p, _, leaf, _ in paths] == [
        (0.25, "total0"), (0.25, "total1"), (0.25, "total1"), (0.25, "total2")
    ]
    assert all(len(entries) == model.horizon and records == () for _, entries, _, records in paths)


def test_static_risk_formulas():
    assert static_risk({0.0: 0.5, 1.0: 0.5}, ENT) == pytest.approx(
        math.log((1 + math.e) / 2), abs=1e-12
    )
    assert static_risk({0.0: 0.25, 4.0: 0.75}, MEAN) == pytest.approx(3.0, abs=1e-12)
    es = RiskSpec(kind="conditional_es", alpha=0.5)
    assert static_risk({0.0: 0.5, 10.0: 0.5}, es) == pytest.approx(10.0, abs=1e-12)


def _entropic_by_decimal(dist, gamma):
    # (1/gamma) log E[exp(gamma X)] in 50-digit decimal arithmetic, whose
    # exponent range holds exp(gamma * loss) far beyond a float's 709
    with localcontext() as ctx:
        ctx.prec = 50
        ctx.Emax = MAX_EMAX
        g = Decimal(gamma)
        total = sum(Decimal(p) * (g * Decimal(v)).exp() for v, p in dist.items() if p > 0)
        return float(total.ln() / g)


def _entropic_laws():
    yield {1000.0: 0.5, 0.0: 0.5}, 1.0
    yield {0.0: 0.5, 1.0: 0.5}, 1.0
    yield {800.0: 0.25, 750.0: 0.75, 2000.0: 0.0}, 1.0  # largest loss has no mass
    yield {0.0: 0.0, 3.0: 1.0}, 2.5
    yield {5.0e4: 1e-300, 10.0: 1.0 - 1e-300}, 0.5
    yield {2.0e4: 0.125, 1.9e4: 0.875}, 40.0
    rng = random.Random(20261018)
    for _ in range(200):
        gamma = rng.choice((0.01, 0.3, 1.0, 5.0, 50.0))
        atoms = rng.randint(1, 12)
        weights = [0.0 if rng.random() < 0.2 else rng.random() for _ in range(atoms)]
        if not any(weights):
            weights[0] = 1.0
        total = math.fsum(weights)
        dist = {}
        for w in weights:
            dist[rng.uniform(0.0, 1.0e3)] = w / total
        yield dist, gamma


def test_static_entropic_matches_decimal_reference():
    laws = list(_entropic_laws())
    assert any(gamma * max(dist) > 709.0 for dist, gamma in laws)
    for dist, gamma in laws:
        reference = _entropic_by_decimal(dist, gamma)
        got = static_risk(dist, RiskSpec(kind="entropic", gamma=gamma))
        assert abs(got - reference) <= 1e-12 * abs(reference), (dist, gamma, got, reference)


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
    rng = random.Random(31)
    for _ in range(25):
        model = random_layered_model(rng, max_depth=5)
        cont = random_policy(rng, model)
        action = model.actions(0, model.initial_state)[-1]
        iv = Intervention(0, model.initial_state, action)
        law = enumerate_terminal_law(model, iv, cont)
        for spec in (ENT, MEAN):
            recursive = evaluate_dynamic_risk(model, iv, cont, spec).root
            assert recursive == pytest.approx(static_risk(law, spec), abs=1e-9)
