"""Scenario loading, validation codes, manifest hashing, CLI round trips."""

from __future__ import annotations

import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollgate.cli import main
from tollgate.exceptions import (
    KernelSumError,
    ModelValidationError,
    ScenarioError,
    ScenarioInvariantError,
    ScenarioParseError,
    ScenarioReferenceError,
)
from tollgate.gate import Gate, audit_budget_guarantee, run_episode
from tollgate.scenario import (
    BUNDLED_SCENARIOS,
    bundled_scenario_path,
    config_hash,
    load_scenario,
    resolve_scenario,
)
from tollgate.verify import _rekernel


@pytest.fixture
def payments_doc():
    return json.loads(bundled_scenario_path("payments").read_text())


def test_bundled_scenarios_load():
    for name in BUNDLED_SCENARIOS:
        sc = load_scenario(bundled_scenario_path(name))
        assert sc.name == name
        assert sc.model.horizon >= 1
        assert len(sc.ambiguity.models) >= 2
        assert sc.boundaries


def test_unknown_bundled_name():
    with pytest.raises(ScenarioReferenceError):
        bundled_scenario_path("nonexistent")


def test_parse_error_on_corrupt_file(tmp_path):
    bad = tmp_path / "bad.scn.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioParseError):
        load_scenario(bad)


def test_parse_error_on_missing_file(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario(tmp_path / "missing.scn.json")


def test_schema_version_checked(payments_doc):
    payments_doc["schema_version"] = 99
    with pytest.raises(ScenarioInvariantError):
        resolve_scenario(payments_doc)


def test_kernel_row_error_names_the_row(payments_doc):
    payments_doc["model"]["nodes"][0]["actions"]["wire_transfer"]["kernel"] = {
        "wired_fraud": 0.2, "wired_clear": 0.7,
    }
    with pytest.raises(KernelSumError) as err:
        resolve_scenario(payments_doc)
    assert "nodes[0]" in str(err.value)
    assert "wire_transfer" in str(err.value)


def test_missing_safe_default_for_priced_action(payments_doc):
    payments_doc["safe_defaults"] = [
        e for e in payments_doc["safe_defaults"]
        if not (e["action"] == "wire_transfer" and e["time"] == 0)
    ]
    with pytest.raises(ScenarioInvariantError) as err:
        resolve_scenario(payments_doc)
    assert "safe-default" in str(err.value)
    assert "wire_transfer" in str(err.value)


def test_policy_must_cover_every_node(payments_doc):
    payments_doc["policy"] = payments_doc["policy"][:-1]
    with pytest.raises(ScenarioInvariantError):
        resolve_scenario(payments_doc)


def test_policy_unknown_node_is_reference_error(payments_doc):
    payments_doc["policy"].append({"time": 0, "state": "ghost", "probs": {"noop": 1.0}})
    with pytest.raises(ScenarioReferenceError):
        resolve_scenario(payments_doc)


def test_ambiguity_override_unknown_action(payments_doc):
    payments_doc["ambiguity"][0]["kernel_overrides"].append(
        {"time": 0, "state": "start", "action": "ghost", "kernel": {"idle_clear": 1.0}}
    )
    with pytest.raises(ScenarioReferenceError):
        resolve_scenario(payments_doc)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_ambiguity_variants_replace_only_their_overrides(name):
    # each variant is the base model with the overridden rows, in state
    # order, and the overridden losses; states, signatures and actions stay
    doc = json.loads(bundled_scenario_path(name).read_text())
    sc = resolve_scenario(doc)
    base = sc.model
    states = [rec["id"] for rec in doc["model"]["states"]]
    rekerneled = _rekernel(np.random.default_rng(5), base)
    for variant, rec in zip(sc.ambiguity.models[1:], doc["ambiguity"], strict=True):
        rows = {
            (ov["time"], ov["state"], ov["action"]): ov["kernel"]
            for ov in rec.get("kernel_overrides", [])
        }
        for t, s in base.all_nodes():
            assert variant.actions(t, s) == base.actions(t, s)
            for a in base.actions(t, s):
                if (t, s, a) in rows:
                    expected = tuple(
                        sorted(rows[(t, s, a)].items(), key=lambda kv: base.state_index(kv[0]))
                    )
                else:
                    expected = base.kernel(t, s, a)
                assert variant.kernel(t, s, a) == expected
        assert variant.terminal_losses == {**base.terminal_losses, **rec.get("loss_overrides", {})}
    for variant in (*sc.ambiguity.models[1:], rekerneled):
        assert list(variant.all_nodes()) == list(base.all_nodes())
        assert [variant.state_index(s) for s in states] == list(range(len(states)))
        assert all(variant.external_signature(s) == base.external_signature(s) for s in states)


def _override_row_sum(doc):
    doc["ambiguity"][0]["kernel_overrides"][0]["kernel"] = {"wired_fraud": 0.35}


def _override_non_numeric_probability(doc):
    doc["ambiguity"][0]["kernel_overrides"][0]["kernel"]["wired_fraud"] = "heavy"


def _override_unknown_target(doc):
    doc["ambiguity"][0]["kernel_overrides"][0]["kernel"] = {"ghost": 0.35, "wired_clear": 0.65}


def _override_target_without_node(doc):
    doc["ambiguity"][0]["kernel_overrides"][0]["kernel"] = {
        "funds_lost": 0.35, "wired_clear": 0.65,
    }


def _override_negative_loss(doc):
    doc["ambiguity"][0]["loss_overrides"] = {"funds_lost": -1.0}


def _override_repeated(doc):
    # the first of two overrides of one row would otherwise go unchecked
    overrides = doc["ambiguity"][0]["kernel_overrides"]
    overrides.insert(0, {**overrides[0], "kernel": {"wired_fraud": 0.35, "ghost": 7}})


def _override_kernel_array(doc):
    doc["ambiguity"][0]["kernel_overrides"][0]["kernel"] = [
        ["wired_fraud", 0.35], ["wired_clear", 0.65],
    ]


@pytest.mark.parametrize(
    "mutate, message, field_path",
    [
        (_override_row_sum, "kernel row sums to 0.35", "ambiguity[0].kernel_overrides[0].kernel"),
        (
            _override_non_numeric_probability,
            "[parse] malformed field 'wired_fraud'",
            "ambiguity[0].kernel_overrides[0].kernel.wired_fraud",
        ),
        (
            _override_unknown_target,
            "kernel targets unknown state 'ghost'",
            "ambiguity[0].kernel_overrides[0].kernel",
        ),
        (
            _override_target_without_node,
            "kernel targets 'funds_lost' but no node exists at time 1",
            "ambiguity[0].kernel_overrides[0]",
        ),
        (
            _override_negative_loss,
            "terminal loss must be finite and >= 0",
            "ambiguity[0].loss_overrides[funds_lost]",
        ),
        (
            _override_repeated,
            "[invariant] repeated override of action 'wire_transfer'",
            "ambiguity[0].kernel_overrides[1]",
        ),
        (
            _override_kernel_array,
            "[parse] malformed field 'kernel': expected an object",
            "ambiguity[0].kernel_overrides[0].kernel",
        ),
    ],
    ids=["row-sum", "non-numeric", "unknown-target", "no-node", "negative-loss", "repeated",
         "array-kernel"],
)
def test_malformed_override_names_its_own_path(
    payments_doc, tmp_path, capsys, mutate, message, field_path
):
    mutate(payments_doc)
    with pytest.raises((ScenarioError, ModelValidationError)) as err:
        resolve_scenario(payments_doc)
    assert err.value.path == field_path
    assert message in str(err.value)
    doc = tmp_path / "bad-override.scn.json"
    doc.write_text(json.dumps(payments_doc))
    assert main(["run", "--scenario", str(doc), "--episodes", "1", "--out", str(tmp_path / "o")]) == 2
    assert f"(at {field_path})" in capsys.readouterr().err


@pytest.mark.parametrize(
    "envelope, message, field_path",
    [
        ({"calibration_episodes": 0}, "samples: n=0", "envelope.calibration_episodes"),
        ({"calibration_episodes": -3}, "samples: n=-3", "envelope.calibration_episodes"),
        (
            {"delta": 0.01, "calibration_episodes": 20},
            "calibration samples: n=20, rank k=21",
            "envelope.calibration_episodes",
        ),
        ({"delta": 1.5}, "delta must lie in (0, 1)", "envelope.delta"),
        ({"delta": math.nan}, "delta must lie in (0, 1)", "envelope.delta"),
        ({"training_episodes": 0}, "training_episodes must be >= 1", "envelope.training_episodes"),
    ],
    ids=["no-calibration", "negative-calibration", "rank-past-n", "delta-1.5", "delta-nan",
         "no-training"],
)
def test_conformal_section_that_cannot_calibrate_refused_at_load(
    payments_doc, tmp_path, capsys, envelope, message, field_path
):
    # the conformal rank rule is checked at load, so every command refuses
    # the section alike and before any rollout
    payments_doc["envelope"] = {
        "kind": "conformal", "delta": 0.1, "calibration_episodes": 60, "training_episodes": 30,
        **envelope,
    }
    with pytest.raises(ScenarioInvariantError, match=re.escape(message)) as err:
        resolve_scenario(payments_doc)
    assert err.value.path == field_path
    doc = tmp_path / "bad-envelope.scn.json"
    doc.write_text(json.dumps(payments_doc))
    for command in (
        ["run", "--scenario", str(doc), "--episodes", "1"],
        ["calibrate", "--scenario", str(doc), "--episodes", "20"],
    ):
        assert main(command + ["--out", str(tmp_path / command[0])]) == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("error: [invariant]")
        assert f"(at {field_path})" in err_text


def test_conformal_section_defaults_calibrate(payments_doc):
    # the pinned 60/30 section runs in test_artifacts; the defaults load too
    payments_doc["envelope"] = {"kind": "conformal"}
    config = resolve_scenario(payments_doc).envelope_config
    assert (config["delta"], config["calibration_episodes"], config["training_episodes"]) == (
        0.1, 200, 100,
    )


def test_exposure_unknown_boundary(payments_doc):
    payments_doc["model"]["nodes"][0]["actions"]["wire_transfer"]["exposure"] = {
        "ghost_boundary": [1.0]
    }
    with pytest.raises(ScenarioReferenceError):
        resolve_scenario(payments_doc)


def test_duplicate_boundary_id_refused_at_load(payments_doc, tmp_path, capsys):
    payments_doc["boundaries"].append(copy.deepcopy(payments_doc["boundaries"][0]))
    with pytest.raises(
        ScenarioInvariantError,
        match=re.escape("duplicate boundary id 'vendor_payments' (at boundaries[1].id)"),
    ):
        resolve_scenario(payments_doc)
    doc = tmp_path / "twice.scn.json"
    doc.write_text(json.dumps(payments_doc))
    assert main(["run", "--scenario", str(doc), "--episodes", "1", "--out", str(tmp_path / "o")]) == 2
    assert "(at boundaries[1].id)" in capsys.readouterr().err


def test_hash_covers_every_primitive(payments_doc):
    """Safe defaults, policy, risk mapping, boundary, and model family each
    feed the manifest hash."""
    base = config_hash(resolve_scenario(payments_doc))

    def flipped(mutate):
        doc = copy.deepcopy(payments_doc)
        mutate(doc)
        return config_hash(resolve_scenario(doc))

    assert flipped(lambda d: d["safe_defaults"].__setitem__(
        0, {"time": 0, "state": "start", "action": "wire_transfer", "default": "noop"}
    )) != base
    assert flipped(lambda d: d["policy"][0]["probs"].update(
        {"wire_transfer": 0.5, "draft_payment": 0.35}
    )) != base
    assert flipped(lambda d: d["risk"].update({"gamma": 2.0})) != base
    assert flipped(lambda d: d["boundaries"][0]["potential"].update({"weights": [0.4]})) != base
    assert flipped(lambda d: d["model"]["nodes"][0]["actions"]["wire_transfer"]["kernel"].update(
        {"wired_fraud": 0.25, "wired_clear": 0.75}
    )) != base
    assert flipped(lambda d: d["ambiguity"][0]["kernel_overrides"][0]["kernel"].update(
        {"wired_fraud": 0.30, "wired_clear": 0.70}
    )) != base
    assert flipped(lambda d: d["gate"].update({"initial_budget": 9.0})) != base


def _reversed_keys(node):
    if isinstance(node, dict):
        return {key: _reversed_keys(node[key]) for key in reversed(list(node))}
    if isinstance(node, list):
        return [_reversed_keys(item) for item in node]
    return node


def test_key_order_changes_neither_hash_nor_manifest(payments_doc, tmp_path):
    # a resolved scenario keeps its document as given, so the hash and the
    # manifest must not depend on the document's key order; the episodes may
    # (action order follows it), so only these two are compared
    flipped = _reversed_keys(payments_doc)
    assert json.dumps(flipped) != json.dumps(payments_doc)
    assert json.dumps(flipped, sort_keys=True) == json.dumps(payments_doc, sort_keys=True)
    assert config_hash(resolve_scenario(flipped)) == config_hash(resolve_scenario(payments_doc))
    manifests = []
    for name, doc in (("given", payments_doc), ("flipped", flipped)):
        path = tmp_path / f"{name}.scn.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / name
        assert main(["run", "--scenario", str(path), "--episodes", "5", "--out", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_cli_run_report_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "25", "--out", str(out)]) == 0
    assert (out / "episodes.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "manifest.json").exists()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "budget guarantee" in text and "PASS" in text


def test_cli_zero_episodes(tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["run", "--scenario", "payments", "--episodes", "0", "--out", str(out)]) == 0
    assert (out / "episodes.jsonl").read_text() == ""
    assert main(["report", "--out", str(out)]) == 0
    assert "zero episodes" in capsys.readouterr().out


def test_cli_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([
            "run", "--scenario", "trading", "--episodes", "40",
            "--seed", "99", "--out", str(out),
        ]) == 0
    assert (out1 / "episodes.jsonl").read_bytes() == (out2 / "episodes.jsonl").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_cli_corrupt_scenario_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.scn.json"
    bad.write_text("{")
    assert main(["run", "--scenario", str(bad), "--episodes", "1", "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err


def _drop_policy_probs(doc):
    del doc["policy"][0]["probs"]


def _non_integer_node_time(doc):
    doc["model"]["nodes"][1]["time"] = "soon"


def _non_integer_safe_default_time(doc):
    doc["safe_defaults"][0]["time"] = "first"


def _nan_policy_probability(doc):
    doc["policy"][0]["probs"]["wire_transfer"] = float("nan")


def _nan_kernel_probability(doc):
    doc["model"]["nodes"][0]["actions"]["wire_transfer"]["kernel"]["wired_fraud"] = float("nan")


def _non_numeric_gamma(doc):
    doc["risk"]["gamma"] = "abc"


def _infinite_gamma(doc):
    doc["risk"]["gamma"] = math.inf


def _unknown_escalation_ruling(doc):
    doc["gate"]["escalation_policy"]["wire_transfer"] = "approved"


def _misspelled_escalation_key(doc):
    doc["gate"]["escalation_policy"] = {"wire_transfr": "approve", "default": "deny"}


def _non_numeric_initial_budget(doc):
    doc["gate"]["initial_budget"] = "lots"


def _non_numeric_potential_weight(doc):
    doc["boundaries"][0]["potential"]["weights"] = ["x"]


def _non_numeric_conformal_delta(doc):
    doc["envelope"] = {"kind": "conformal", "delta": "x"}


def _boundary_without_id(doc):
    del doc["boundaries"][0]["id"]


def _non_numeric_exposure(doc):
    doc["model"]["nodes"][0]["actions"]["wire_transfer"]["exposure"]["vendor_payments"] = ["one"]


def _non_numeric_loss_override(doc):
    doc["ambiguity"][0]["loss_overrides"] = {"funds_lost": "heavy"}


def _non_integer_horizon(doc):
    doc["model"]["horizon"] = "abc"


def _non_integer_seed(doc):
    doc["seed"] = "x"


def _state_without_id(doc):
    del doc["model"]["states"][2]["id"]


def _component_without_name(doc):
    del doc["model"]["components"][0]["name"]


def _ambiguity_item_not_object(doc):
    doc["ambiguity"] = [5]


def _categories_not_object(doc):
    doc["action_categories"] = []


def _boundary_item_not_object(doc):
    doc["boundaries"] = ["x"]


def _risk_not_object(doc):
    doc["risk"] = []


def _safe_defaults_not_array(doc):
    doc["safe_defaults"] = 5


def _fallback_order_not_array(doc):
    doc["gate"]["fallback_order"] = 5


def _escalation_policy_not_object(doc):
    doc["gate"]["escalation_policy"] = []


def _node_actions_not_object(doc):
    doc["model"]["nodes"][0]["actions"] = []


def _action_record_not_object(doc):
    doc["model"]["nodes"][0]["actions"]["wire_transfer"] = 5


def _fractional_horizon(doc):
    doc["model"]["horizon"] = 2.5


def _boolean_seed(doc):
    doc["seed"] = True


def _fractional_node_time(doc):
    doc["model"]["nodes"][1]["time"] = 1.5


def _boolean_safe_default_time(doc):
    doc["safe_defaults"][0]["time"] = True


def _fractional_policy_time(doc):
    doc["policy"][0]["time"] = 0.5


def _fractional_boundary_dimension(doc):
    doc["boundaries"][0]["dimension"] = 1.5


def _fractional_calibration_episodes(doc):
    doc["envelope"] = {"kind": "conformal", "calibration_episodes": 200.5}


def _boolean_training_episodes(doc):
    doc["envelope"] = {"kind": "conformal", "training_episodes": True}


def _nan_exposure(doc):
    doc["model"]["nodes"][0]["actions"]["wire_transfer"]["exposure"]["vendor_payments"] = [math.nan]


def _infinite_exposure(doc):
    doc["model"]["nodes"][0]["actions"]["wire_transfer"]["exposure"]["vendor_payments"] = [math.inf]


def _negative_seed(doc):
    doc["seed"] = -5


def _string_terminal_loss(doc):
    doc["model"]["terminal_losses"]["funds_lost"] = "3.5"


def _string_kernel_probability(doc):
    doc["model"]["nodes"][0]["actions"]["wire_transfer"]["kernel"]["wired_fraud"] = "0.2"


def _boolean_policy_probability(doc):
    doc["policy"][0]["probs"]["noop"] = True


def _boolean_initial_budget(doc):
    doc["gate"]["initial_budget"] = True


def _oversized_initial_budget(doc):
    doc["gate"]["initial_budget"] = 10**400


def _boolean_gamma(doc):
    doc["risk"]["gamma"] = True


def _string_potential_weight(doc):
    doc["boundaries"][0]["potential"]["weights"] = ["2"]


def _string_potential_exponent(doc):
    doc["boundaries"][0]["potential"]["exponent"] = "2"


def _boolean_exposure(doc):
    doc["model"]["nodes"][0]["actions"]["wire_transfer"]["exposure"]["vendor_payments"] = [True]


def _boolean_conformal_delta(doc):
    doc["envelope"] = {"kind": "conformal", "delta": False}


# NaN probabilities and exposures, an infinite gamma and an unknown
# escalation ruling or key parse; the model, risk, exposure and gate checks
# refuse them instead.
_NOT_PARSE_ERRORS = {
    _nan_policy_probability: "must be finite",
    _nan_kernel_probability: "must be finite",
    _nan_exposure: "[invariant] exposure increments must be finite",
    _infinite_exposure: "[invariant] exposure increments must be finite",
    _infinite_gamma: "entropic risk needs a finite gamma > 0",
    _unknown_escalation_ruling: "[invariant] escalation ruling must be 'approve' or 'deny'",
    _misspelled_escalation_key: "[unresolved-reference] escalation policy names unknown action",
    _negative_seed: "[invariant] seed must be >= 0",
}


@pytest.mark.parametrize(
    "mutate, field_path",
    [
        (_drop_policy_probs, "policy[0].probs"),
        (_non_integer_node_time, "nodes[1].time"),
        (_non_integer_safe_default_time, "safe_defaults[0].time"),
        (_nan_policy_probability, "policy[0,start].wire_transfer"),
        (_nan_kernel_probability, "nodes[0].actions[wire_transfer].kernel.wired_fraud"),
        (_non_numeric_gamma, "risk.gamma"),
        (_infinite_gamma, "risk.gamma"),
        (_unknown_escalation_ruling, "gate.escalation_policy.wire_transfer"),
        (_misspelled_escalation_key, "gate.escalation_policy.wire_transfr"),
        (_non_numeric_initial_budget, "gate.initial_budget"),
        (_non_numeric_potential_weight, "boundaries[0].potential.weights"),
        (_non_numeric_conformal_delta, "envelope.delta"),
        (_boundary_without_id, "boundaries[0].id"),
        (_non_numeric_exposure, "model.nodes[0].actions[wire_transfer].exposure.vendor_payments"),
        (_non_numeric_loss_override, "ambiguity[0].loss_overrides.funds_lost"),
        (_non_integer_horizon, "horizon"),
        (_non_integer_seed, "seed"),
        (_state_without_id, "states[2].id"),
        (_component_without_name, "components[0].name"),
        (_ambiguity_item_not_object, "ambiguity"),
        (_categories_not_object, "action_categories"),
        (_boundary_item_not_object, "boundaries"),
        (_risk_not_object, "risk"),
        (_safe_defaults_not_array, "safe_defaults"),
        (_fallback_order_not_array, "gate.fallback_order"),
        (_escalation_policy_not_object, "gate.escalation_policy"),
        (_node_actions_not_object, "nodes[0].actions"),
        (_action_record_not_object, "nodes[0].actions.wire_transfer"),
        (_fractional_horizon, "horizon"),
        (_boolean_seed, "seed"),
        (_fractional_node_time, "nodes[1].time"),
        (_boolean_safe_default_time, "safe_defaults[0].time"),
        (_fractional_policy_time, "policy[0].time"),
        (_fractional_boundary_dimension, "boundaries[0].dimension"),
        (_fractional_calibration_episodes, "envelope.calibration_episodes"),
        (_boolean_training_episodes, "envelope.training_episodes"),
        (_nan_exposure, "model.nodes[0].actions[wire_transfer].exposure"),
        (_infinite_exposure, "model.nodes[0].actions[wire_transfer].exposure"),
        (_negative_seed, "seed"),
        (_string_terminal_loss, "terminal_losses.funds_lost"),
        (_string_kernel_probability, "nodes[0].actions[wire_transfer].kernel.wired_fraud"),
        (_boolean_policy_probability, "policy[0].probs"),
        (_boolean_initial_budget, "gate.initial_budget"),
        (_oversized_initial_budget, "gate.initial_budget"),
        (_boolean_gamma, "risk.gamma"),
        (_string_potential_weight, "boundaries[0].potential.weights"),
        (_string_potential_exponent, "boundaries[0].potential.exponent"),
        (_boolean_exposure, "model.nodes[0].actions[wire_transfer].exposure.vendor_payments"),
        (_boolean_conformal_delta, "envelope.delta"),
    ],
)
def test_cli_malformed_field_is_coded_parse_error(payments_doc, tmp_path, capsys, mutate, field_path):
    mutate(payments_doc)
    doc = tmp_path / "malformed.scn.json"
    doc.write_text(json.dumps(payments_doc))
    assert main(["run", "--scenario", str(doc), "--episodes", "1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert _NOT_PARSE_ERRORS.get(mutate, "[parse]") in err
    assert f"(at {field_path})" in err


@pytest.mark.parametrize(
    "gate, message, field_path",
    [
        ({"initial_budget": math.nan}, "initial budget must be >= 0", "gate.initial_budget"),
        ({"initial_budget": -1.0}, "initial budget must be >= 0", "gate.initial_budget"),
        ({"fallback_order": ["downgrade", "nan"]}, "unknown fallback mode 'nan'", "gate.fallback_order"),
        ({"fallback_order": []}, "fallback order must be nonempty", "gate.fallback_order"),
    ],
    ids=["nan-budget", "negative-budget", "unknown-mode", "empty-order"],
)
def test_gate_section_refused_at_load(payments_doc, tmp_path, capsys, gate, message, field_path):
    # the loader builds the scenario's GateConfig, so every command refuses a
    # bad gate section the same way, calibrate included
    payments_doc["gate"].update(gate)
    with pytest.raises(ModelValidationError, match=re.escape(f"{message} (at {field_path})")):
        resolve_scenario(payments_doc)
    doc = tmp_path / "bad-gate.scn.json"
    doc.write_text(json.dumps(payments_doc))
    for command in (
        ["run", "--scenario", str(doc), "--episodes", "1"],
        ["calibrate", "--scenario", str(doc), "--episodes", "20"],
    ):
        assert main(command + ["--out", str(tmp_path / command[0])]) == 2
        assert f"{message} (at {field_path})" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--scenario", "payments", "--seed", "-1", "--out", "o"],
        ["calibrate", "--scenario", "payments", "--seed", "-20000", "--out", "o"],
        ["verify", "--suite", "time-consistency", "--seed", "-1"],
        ["run", "--scenario", "payments", "--seed", "x", "--out", "o"],
        ["run", "--scenario", "payments", "--episodes", "-5", "--out", "o"],
        ["calibrate", "--scenario", "payments", "--episodes", "-5", "--out", "o"],
    ],
    ids=["run", "calibrate", "verify", "not-an-integer", "run-episodes", "calibrate-episodes"],
)
def test_cli_negative_seed_is_usage_error(command, capsys, tmp_path, monkeypatch):
    # a seed sequence takes non-negative entropy only, and an episode count
    # is never negative; argparse refuses the rest before any command runs
    monkeypatch.chdir(tmp_path)
    option = next(arg for arg in command if arg in ("--seed", "--episodes"))
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    assert f"argument {option}: expected a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_cli_verify_cvar_demo(capsys):
    assert main(["verify", "--suite", "cvar-demo", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["passed"] is True


def test_cli_calibrate_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "cal"
    assert main([
        "calibrate", "--scenario", "payments", "--episodes", "50",
        "--delta", "0.1", "--seed", "4", "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "quantile_rank=46" in printed  # ceil(51 * 0.9)
    assert (out / "calibration.csv").exists()
    meta = json.loads((out / "envelope.json").read_text())
    assert meta["samples"] == 50
    assert meta["inflation"] >= 0.0


def test_cli_calibrate_too_small_fails(tmp_path, capsys):
    out = tmp_path / "cal"
    code = main([
        "calibrate", "--scenario", "payments", "--episodes", "3",
        "--delta", "0.1", "--seed", "4", "--out", str(out),
    ])
    assert code == 1
    assert "calibration" in capsys.readouterr().err.lower()


def test_cli_report_missing_artifacts(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "nope")]) == 1
    assert "error" in capsys.readouterr().err


def _paths(node, prefix=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _json_kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


_BUNDLED_DOCS = {
    name: json.loads(bundled_scenario_path(name).read_text()) for name in BUNDLED_SCENARIOS
}
_DOC_PATHS = {name: list(_paths(doc)) for name, doc in _BUNDLED_DOCS.items()}
_OTHER_VALUES = (None, True, 7, 2.5, "x", [], {}, [7], {"x": 7})


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_document_resolves_or_raises_coded_error(name, data):
    """Drop, retype or NaN one field of a bundled document: the loader either
    refuses it with a coded scenario or model error, or resolves a scenario
    whose gate runs and passes the exact-tier audit."""
    doc = copy.deepcopy(_BUNDLED_DOCS[name])
    *head, key = data.draw(st.sampled_from(_DOC_PATHS[name]), label="path")
    parent = doc
    for step in head:
        parent = parent[step]
    mutation = data.draw(st.sampled_from(("drop", "retype", "nan")), label="mutation")
    if mutation == "drop":
        del parent[key]
    elif mutation == "nan":
        parent[key] = math.nan
    else:
        kind = _json_kind(parent[key])
        others = [v for v in _OTHER_VALUES if _json_kind(v) != kind]
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(others), label="value"))
    try:
        sc = resolve_scenario(doc)
    except (ScenarioError, ModelValidationError):
        return
    gate = Gate(sc.model, sc.policy, sc.gate)
    logs = [run_episode(gate, seed=0, episode=i) for i in range(3)]
    assert audit_budget_guarantee(logs, sc.gate.exact_quoter.predict, 0.0).passed
