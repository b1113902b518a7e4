"""Scenario loading, validation codes, manifest hashing, CLI round trips."""

from __future__ import annotations

import copy
import json
import math

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
from tollgate.scenario import (
    BUNDLED_SCENARIOS,
    bundled_scenario_path,
    config_hash,
    load_scenario,
    resolve_scenario,
)


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


def test_exposure_unknown_boundary(payments_doc):
    payments_doc["model"]["nodes"][0]["actions"]["wire_transfer"]["exposure"] = {
        "ghost_boundary": [1.0]
    }
    with pytest.raises(ScenarioReferenceError):
        resolve_scenario(payments_doc)


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


# NaN probabilities and exposures, an infinite gamma and an unknown
# escalation ruling parse; the model, risk, exposure and gate checks refuse
# them instead.
_NOT_PARSE_ERRORS = {
    _nan_policy_probability: "must be finite",
    _nan_kernel_probability: "must be finite",
    _nan_exposure: "[invariant] exposure increments must be finite",
    _infinite_exposure: "[invariant] exposure increments must be finite",
    _infinite_gamma: "entropic risk needs a finite gamma > 0",
    _unknown_escalation_ruling: "[invariant] escalation ruling must be 'approve' or 'deny'",
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
    resolves it or refuses it with a coded scenario or model error."""
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
        resolve_scenario(doc)
    except (ScenarioError, ModelValidationError):
        pass
