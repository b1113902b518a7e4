"""Scenario loading, validation codes, manifest hashing, CLI round trips."""

from __future__ import annotations

import copy
import json
import math
import random
import re

import pytest

from tollgate.cli import main
from tollgate.exceptions import (
    ModelValidationError,
    ScenarioError,
    ScenarioParseError,
    ScenarioReferenceError,
)
from tollgate.gate import Gate, audit_budget_guarantee, run_episode
from tollgate.instances import rekernel
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


# A JSON array nested past any recursion limit the decoder allows.
_TOO_DEEP = "[" * 100_000 + "]" * 100_000


def _payments_with_deep_model() -> bytes:
    doc = json.loads(bundled_scenario_path("payments").read_text())
    text = json.dumps({**doc, "model": None}).replace('"model": null', f'"model": {_TOO_DEEP}')
    return text.encode()


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff\xfe{}", "not UTF-8 text"),
        (_TOO_DEEP.encode(), "JSON nested too deeply to decode"),
        (_payments_with_deep_model(), "JSON nested too deeply to decode"),
    ],
    ids=["not-utf-8", "document-too-deep", "model-too-deep"],
)
def test_undecodable_scenario_file_is_coded_parse_error(data, message, tmp_path, capsys):
    # one error line at the file's path and exit 2, before any output
    # directory is made, not a traceback
    doc = tmp_path / "undecodable.scn.json"
    doc.write_bytes(data)
    for command in (
        ["run", "--scenario", str(doc), "--episodes", "1"],
        ["calibrate", "--scenario", str(doc), "--episodes", "20"],
    ):
        out = tmp_path / command[0]
        assert main(command + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [parse] {message}")
        assert err.endswith(f"(at {doc})\n") and err.count("\n") == 1
        assert not out.exists()


def test_parse_error_on_missing_file(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario(tmp_path / "missing.scn.json")


def test_schema_version_checked(payments_doc):
    payments_doc["schema_version"] = 99
    with pytest.raises(ModelValidationError) as err:
        resolve_scenario(payments_doc)
    assert (err.value.code, err.value.path) == ("invariant", "schema_version")


def test_kernel_row_error_names_the_row(payments_doc):
    payments_doc["model"]["nodes"][0]["actions"]["wire_transfer"]["kernel"] = {
        "wired_fraud": 0.2, "wired_clear": 0.7,
    }
    with pytest.raises(ModelValidationError, match="kernel row sums to") as err:
        resolve_scenario(payments_doc)
    assert err.value.code == "invariant"
    assert err.value.path == "model.nodes[0].actions[wire_transfer].kernel"


def test_missing_safe_default_for_priced_action(payments_doc):
    payments_doc["safe_defaults"] = [
        e for e in payments_doc["safe_defaults"]
        if not (e["action"] == "wire_transfer" and e["time"] == 0)
    ]
    with pytest.raises(ModelValidationError, match="has no safe-default entry") as err:
        resolve_scenario(payments_doc)
    assert err.value.code == "invariant"
    assert err.value.path == "safe_defaults[0,start,wire_transfer]"


def test_policy_must_cover_every_node(payments_doc):
    last = payments_doc["policy"].pop()
    with pytest.raises(ModelValidationError, match="policy undefined") as err:
        resolve_scenario(payments_doc)
    assert err.value.code == "invariant"
    assert err.value.path == f"policy[{last['time']},{last['state']}]"


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
    rekerneled = rekernel(random.Random(5), base)
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
    with pytest.raises(ScenarioError) as err:
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
    with pytest.raises(ModelValidationError, match=re.escape(message)) as err:
        resolve_scenario(payments_doc)
    assert (err.value.code, err.value.path) == ("invariant", field_path)
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
        ModelValidationError,
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


def _with_a_second_boundary(doc):
    """``doc`` with a second boundary, which every action that grows the
    first one's exposure grows too: such an action commits to both."""
    doc = copy.deepcopy(doc)
    doc["boundaries"].append({"id": "audit_trail", "potential": {"weights": [0.5]}})
    for node in doc["model"]["nodes"]:
        for action in node["actions"].values():
            if "exposure" in action:
                action["exposure"]["audit_trail"] = [2.0]
    return doc


def test_key_order_changes_neither_hash_nor_manifest(payments_doc, tmp_path, capsys):
    # a resolved scenario keeps its document as given, and the manifest
    # stores it with sorted keys; so no artifact and no report may depend on
    # the document's key order: not the policy rows the proposals are drawn
    # from, nor the order in which one action's exposure is committed to two
    # boundaries
    for doc in (payments_doc, _with_a_second_boundary(payments_doc)):
        flipped = _reversed_keys(doc)
        assert json.dumps(flipped) != json.dumps(doc)
        assert json.dumps(flipped, sort_keys=True) == json.dumps(doc, sort_keys=True)
        assert config_hash(resolve_scenario(flipped)) == config_hash(resolve_scenario(doc))
        outputs = []
        for name, given in (("given", doc), ("flipped", flipped)):
            path = tmp_path / f"{name}.scn.json"
            path.write_text(json.dumps(given))
            out = tmp_path / name
            run = ["run", "--scenario", str(path), "--episodes", "300", "--out", str(out)]
            assert main(run) == 0
            capsys.readouterr()
            assert main(["report", "--out", str(out)]) == 0
            written = {p.name: p.read_bytes() for p in out.iterdir()}
            outputs.append((written, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0]) == 4 and outputs[0][1].rstrip().endswith("-> PASS")
    records = [json.loads(line) for line in (out / "boundaries.jsonl").open()]
    assert {r["boundary_id"] for r in records} == {"vendor_payments", "audit_trail"}


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


def _leaf_initial_state(doc):
    doc["model"]["initial_state"] = "funds_lost"


def _later_initial_state(doc):
    # a state whose only decision node is at time 1
    doc["model"]["initial_state"] = "wired_fraud"


def _object_name(doc):
    doc["name"] = {"x": 1}


def _list_component_name(doc):
    doc["model"]["components"][0]["name"] = ["phase"]


def _numeric_state_id(doc):
    doc["model"]["states"][14]["id"] = 14


def _list_outside_state(doc):
    doc["boundaries"][0]["outside_state"] = [1, 2]


def _list_action_category(doc):
    doc["action_categories"]["noop"] = ["idle"]


def _numeric_boundary_id(doc):
    doc["boundaries"][0]["id"] = 7


def _numeric_null_action(doc):
    doc["model"]["null_action"] = 1


def _list_initial_state(doc):
    doc["model"]["initial_state"] = ["start"]


def _string_fallback_order(doc):
    doc["gate"]["fallback_order"] = "block"


def _boolean_schema_version(doc):
    doc["schema_version"] = True


def _string_component_external(doc):
    doc["model"]["components"][0]["external"] = "x"


def _numeric_component_external(doc):
    doc["model"]["components"][1]["external"] = 0


def _object_ambiguity_name(doc):
    doc["ambiguity"][0]["name"] = {}


def _misspelled_category_key(doc):
    doc["action_categories"] = {"noop": "idle", "wire_transfr": "x"}


def _negative_initial_budget(doc):
    doc["gate"]["initial_budget"] = -1.0


def _unknown_risk_kind(doc):
    doc["risk"]["kind"] = "bogus"


def _unknown_fallback_mode(doc):
    doc["gate"]["fallback_order"] = ["downgrade", "fly"]


def _kernel_row_sum_081(doc):
    doc["model"]["nodes"][0]["actions"]["wire_transfer"]["kernel"]["wired_clear"] = 0.61


def _zero_horizon(doc):
    doc["model"]["horizon"] = 0


def _negative_terminal_loss(doc):
    doc["model"]["terminal_losses"]["funds_lost"] = -1.0


def _unavailable_safe_default(doc):
    doc["safe_defaults"][0]["default"] = "ghost"


def _policy_row_sum_two(doc):
    doc["policy"][0]["probs"]["noop"] = 1.15


# NaN probabilities and exposures, an infinite gamma, an unknown risk kind, a
# negative budget, an unknown fallback mode, an unknown escalation ruling or
# key, an unknown category key, an initial state with no time-0 node and
# each model, safe-default, policy and override refusal parse; the model,
# risk, exposure, gate and category checks refuse them instead.
_NOT_PARSE_ERRORS = {
    _nan_policy_probability: "[invariant] policy probability must be finite",
    _nan_kernel_probability: "[invariant] kernel probability must be finite",
    _nan_exposure: "[invariant] exposure increments must be finite",
    _infinite_exposure: "[invariant] exposure increments must be finite",
    _infinite_gamma: "[invariant] entropic risk needs a finite gamma > 0",
    _negative_initial_budget: "[invariant] initial budget must be >= 0",
    _unknown_risk_kind: "[invariant] unknown risk kind 'bogus'",
    _unknown_fallback_mode: "[invariant] unknown fallback mode 'fly'",
    _unknown_escalation_ruling: "[invariant] escalation ruling must be 'approve' or 'deny'",
    _misspelled_escalation_key: "[unresolved-reference] escalation policy names unknown action",
    _misspelled_category_key: "[unresolved-reference] action categories name unknown action",
    _negative_seed: "[invariant] seed must be >= 0",
    _leaf_initial_state: "[invariant] initial state 'funds_lost' has no decision node at time 0",
    _later_initial_state: "[invariant] initial state 'wired_fraud' has no decision node at time 0",
    _kernel_row_sum_081: "[invariant] kernel row sums to 0.81, expected 1",
    _zero_horizon: "[invariant] horizon must be >= 1, got 0",
    _negative_terminal_loss: "[invariant] terminal loss must be finite and >= 0, got -1.0",
    _unavailable_safe_default: "[invariant] safe default 'ghost' is not available",
    _policy_row_sum_two: "[invariant] policy row sums to 2.0, expected 1",
    _override_negative_loss: "[invariant] terminal loss must be finite and >= 0, got -1.0",
}


# Fields of the model section, by their path within it. Their rows assert
# the path from the document root, model.<path>, and keep <path> in their
# ids, which name the field within the section.
_MODEL_FIELDS = [
    (_non_integer_node_time, "nodes[1].time"),
    (_nan_kernel_probability, "nodes[0].actions[wire_transfer].kernel.wired_fraud"),
    (_non_integer_horizon, "horizon"),
    (_state_without_id, "states[2].id"),
    (_component_without_name, "components[0].name"),
    (_node_actions_not_object, "nodes[0].actions"),
    (_action_record_not_object, "nodes[0].actions.wire_transfer"),
    (_fractional_horizon, "horizon"),
    (_fractional_node_time, "nodes[1].time"),
    (_string_terminal_loss, "terminal_losses.funds_lost"),
    (_string_kernel_probability, "nodes[0].actions[wire_transfer].kernel.wired_fraud"),
    (_leaf_initial_state, "initial_state"),
    (_later_initial_state, "initial_state"),
    (_list_component_name, "components[0].name"),
    (_numeric_state_id, "states[14].id"),
    (_numeric_null_action, "null_action"),
    (_list_initial_state, "initial_state"),
    (_string_component_external, "components[0].external"),
    (_numeric_component_external, "components[1].external"),
    (_kernel_row_sum_081, "nodes[0].actions[wire_transfer].kernel"),
    (_zero_horizon, "horizon"),
    (_negative_terminal_loss, "terminal_losses[funds_lost]"),
]


@pytest.mark.parametrize(
    "mutate, field_path",
    [
        (_drop_policy_probs, "policy[0].probs"),
        (_non_integer_safe_default_time, "safe_defaults[0].time"),
        (_nan_policy_probability, "policy[0,start].wire_transfer"),
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
        (_non_integer_seed, "seed"),
        (_ambiguity_item_not_object, "ambiguity"),
        (_categories_not_object, "action_categories"),
        (_boundary_item_not_object, "boundaries"),
        (_risk_not_object, "risk"),
        (_safe_defaults_not_array, "safe_defaults"),
        (_fallback_order_not_array, "gate.fallback_order"),
        (_escalation_policy_not_object, "gate.escalation_policy"),
        (_boolean_seed, "seed"),
        (_boolean_safe_default_time, "safe_defaults[0].time"),
        (_fractional_policy_time, "policy[0].time"),
        (_fractional_boundary_dimension, "boundaries[0].dimension"),
        (_fractional_calibration_episodes, "envelope.calibration_episodes"),
        (_boolean_training_episodes, "envelope.training_episodes"),
        (_nan_exposure, "model.nodes[0].actions[wire_transfer].exposure"),
        (_infinite_exposure, "model.nodes[0].actions[wire_transfer].exposure"),
        (_negative_seed, "seed"),
        (_boolean_policy_probability, "policy[0].probs"),
        (_boolean_initial_budget, "gate.initial_budget"),
        (_oversized_initial_budget, "gate.initial_budget"),
        (_boolean_gamma, "risk.gamma"),
        (_string_potential_weight, "boundaries[0].potential.weights"),
        (_string_potential_exponent, "boundaries[0].potential.exponent"),
        (_boolean_exposure, "model.nodes[0].actions[wire_transfer].exposure.vendor_payments"),
        (_boolean_conformal_delta, "envelope.delta"),
        (_object_name, "name"),
        (_list_outside_state, "boundaries[0].outside_state"),
        (_list_action_category, "action_categories"),
        (_numeric_boundary_id, "boundaries[0].id"),
        (_string_fallback_order, "gate.fallback_order"),
        (_boolean_schema_version, "schema_version"),
        (_object_ambiguity_name, "ambiguity[0].name"),
        (_misspelled_category_key, "action_categories.wire_transfr"),
        (_negative_initial_budget, "gate.initial_budget"),
        (_unknown_risk_kind, "risk.kind"),
        (_unknown_fallback_mode, "gate.fallback_order"),
        (_unavailable_safe_default, "safe_defaults[0,start,wire_transfer]"),
        (_policy_row_sum_two, "policy[0,start]"),
        (_override_negative_loss, "ambiguity[0].loss_overrides[funds_lost]"),
        *(
            pytest.param(mutate, f"model.{path}", id=f"{mutate.__name__}-{path}")
            for mutate, path in _MODEL_FIELDS
        ),
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
    assert not (tmp_path / "o").exists()


def _boundary_exponent_half(doc):
    doc["boundaries"][0]["potential"]["exponent"] = 0.5


def _boundary_dimension_two(doc):
    doc["boundaries"][0]["dimension"] = 2


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            _boundary_exponent_half,
            "power potential needs a finite exponent >= 1 (at boundaries[0].potential.exponent)",
        ),
        (
            _boundary_dimension_two,
            "potential dimension does not match boundary dimension (at boundaries[0].potential)",
        ),
    ],
    ids=["exponent-half", "dimension-two"],
)
def test_cli_boundary_constructor_error_is_coded_at_its_document_path(
    payments_doc, tmp_path, capsys, mutate, message
):
    mutate(payments_doc)
    doc = tmp_path / "boundary.scn.json"
    doc.write_text(json.dumps(payments_doc))
    assert main(["run", "--scenario", str(doc), "--episodes", "1", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: [invariant] {message}\n"


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
    error = f"[invariant] {message} (at {field_path})"
    with pytest.raises(ModelValidationError, match=re.escape(error)):
        resolve_scenario(payments_doc)
    doc = tmp_path / "bad-gate.scn.json"
    doc.write_text(json.dumps(payments_doc))
    for command in (
        ["run", "--scenario", str(doc), "--episodes", "1"],
        ["calibrate", "--scenario", str(doc), "--episodes", "20"],
    ):
        assert main(command + ["--out", str(tmp_path / command[0])]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


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


def test_cli_calibrate_too_small_fails(tmp_path, capsys, monkeypatch):
    # a calibration that cannot be fitted, for too few episodes (exit 1) or
    # a delta outside (0, 1) (exit 2), is refused before any rollout runs
    # and before the output directory is made
    def no_rollouts(*args, **kwargs):
        raise AssertionError("calibrate ran a rollout before refusing")

    monkeypatch.setattr("tollgate.scenario.frozen_rollout_quotes", no_rollouts)
    for episodes, delta, code, message in (
        ("3", "0.1", 1, "calibration samples"),
        ("500", "1.5", 2, "delta must lie in (0, 1)"),
    ):
        out = tmp_path / f"cal-{delta}"
        assert main([
            "calibrate", "--scenario", "payments", "--episodes", episodes,
            "--delta", delta, "--seed", "4", "--out", str(out),
        ]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--scenario", "payments", "--episodes", "1"],
        ["calibrate", "--scenario", "payments", "--episodes", "20"],
    ],
    ids=["run", "calibrate"],
)
def test_cli_write_failure_names_the_path(tmp_path, capsys, command):
    # an output directory below a regular file cannot be made: the error
    # names the path and the OS reason, not the run artifacts
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    assert main(command + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
    assert "Not a directory" in err
    assert "artifacts" not in err


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


_BUNDLED_TEXTS = {name: bundled_scenario_path(name).read_text() for name in BUNDLED_SCENARIOS}
# A mutation sets one field, a leaf or a whole section, to one of these
# values, or deletes it (_DELETE).
_MUTATION_VALUES = (
    None, True, -1, 0, 1.5, 10**400, "x", [], {}, [1.0], math.nan, math.inf, -0.0,
)
_DELETE = object()
_MUTATIONS_PER_DOCUMENT = 1000


def _seeded_mutations(name: str) -> list[tuple[tuple, object]]:
    """``_MUTATIONS_PER_DOCUMENT`` distinct ``(field path, value)`` pairs of
    the bundled document ``name``, drawn by a fixed seed."""
    doc = json.loads(_BUNDLED_TEXTS[name])
    pairs = [(path, value) for path in _paths(doc) for value in _MUTATION_VALUES + (_DELETE,)]
    return random.Random(f"mutations-{name}").sample(pairs, _MUTATIONS_PER_DOCUMENT)


def _mutated(name: str, path: tuple, value) -> dict:
    doc = json.loads(_BUNDLED_TEXTS[name])
    *head, key = path
    parent = doc
    for step in head:
        parent = parent[step]
    if value is _DELETE:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(value)
    return doc


def _root_key(path: str) -> str:
    """The first segment of a field path: ``model`` of ``model.nodes[1].time``,
    ``policy`` of ``policy[0,start]``."""
    return re.split(r"[.\[]", path, maxsplit=1)[0]


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_fuzzed_document_resolves_or_raises_coded_error(name):
    """Set one field of a bundled document to an odd value, or delete it: the
    loader either refuses it with a coded error whose path starts at a key of
    the document, or resolves a scenario whose gate runs and passes the
    exact-tier audit."""
    top = set(json.loads(_BUNDLED_TEXTS[name]))
    unrooted = []
    for path, value in _seeded_mutations(name):
        try:
            sc = resolve_scenario(_mutated(name, path, value))
        except ScenarioError as exc:
            if _root_key(exc.path) not in top:
                unrooted.append((path, value, str(exc)))
            continue
        gate = Gate(sc.model, sc.policy, sc.gate)
        logs = [run_episode(gate, seed=0, episode=i) for i in range(3)]
        assert audit_budget_guarantee(logs, gate, 0.0).passed, path
    assert not unrooted, f"{len(unrooted)} refusal(s) not rooted at the document: {unrooted[:3]}"
