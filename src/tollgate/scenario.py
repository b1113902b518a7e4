"""Scenario documents: loading, validation, runtime assembly, calibration.

A scenario is one JSON document with an explicit schema version tying
together every primitive a run needs: the environment model, the ambiguity
variants, the frozen policy (it is both the pricing continuation and the
proposal stream), the risk mapping, safe defaults, boundaries with their
potentials, per-action exposure increments, the gate parameters, and the
envelope configuration. All randomness is seeded through the document or the
CLI; nothing ambient.

Loader failures carry distinct codes: ``parse`` for unreadable documents,
``unresolved-reference`` for ids that do not resolve, and ``invariant`` (or
a model validation subclass) for structural violations. Every error names
the offending field path.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from .boundary import BoundarySpec, PotentialSpec
from .envelope import (
    Envelope,
    exact_envelope,
    fit_conformal_envelope,
    least_squares_predictor,
)
from .envmodel import (
    EnvironmentModel,
    Policy,
    SafeDefaultMap,
    as_int,
    as_object,
    as_objects,
    build_model,
    is_side_effect_bearing,
    optional_field,
    read_field,
    safe_default_entry,
)
from .exceptions import (
    ScenarioInvariantError,
    ScenarioParseError,
    ScenarioReferenceError,
)
from .gate import GateConfig, run_episode
from .risk import RiskSpec
from .tolls import AmbiguitySet

SCHEMA_VERSION = 1
BUNDLED_SCENARIOS = ("payments", "database", "trading")


@dataclass(frozen=True)
class GateParams:
    initial_budget: float
    fallback_order: tuple[str, ...]
    escalation_policy: dict[str, str]


@dataclass(frozen=True)
class Scenario:
    """Fully resolved scenario: every id checked, every object built."""

    name: str
    seed: int
    model: EnvironmentModel
    ambiguity: AmbiguitySet
    policy: Policy
    risk_spec: RiskSpec
    safe_defaults: SafeDefaultMap
    boundaries: tuple[BoundarySpec, ...]
    exposure: dict[tuple[int, str, str], dict[str, tuple[float, ...]]]
    gate: GateParams
    envelope_config: dict
    action_categories: dict[str, str]
    category_order: tuple[str, ...]
    raw: dict = field(repr=False, default_factory=dict)


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    if name not in BUNDLED_SCENARIOS:
        raise ScenarioReferenceError(f"no bundled scenario named {name!r}", path="name")
    return Path(str(resources.files("tollgate").joinpath(f"scenarios/{name}.scn.json")))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file: {exc}", path=str(path)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc}", path=str(path)) from exc
    return resolve_scenario(doc)


def resolve_scenario(doc: Mapping) -> Scenario:
    if not isinstance(doc, Mapping):
        raise ScenarioParseError("scenario document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioInvariantError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}",
            path="schema_version",
        )
    name = str(doc.get("name", "unnamed"))
    seed = optional_field(doc, "seed", as_int, "", 0)

    model = build_model(optional_field(doc, "model", as_object, "", {}))

    sdm = _resolve_safe_defaults(doc, model)
    ambiguity = _resolve_ambiguity(doc, model)
    policy = _resolve_policy(doc, model)
    risk_spec = _resolve_risk(doc)
    boundaries = _resolve_boundaries(doc)
    exposure = _resolve_exposure(doc, model, boundaries)
    gate = _resolve_gate_params(doc)
    envelope_config = _resolve_envelope(doc)

    categories = optional_field(doc, "action_categories", _str_map, "", {})
    seen = set()
    for t, s in model.all_nodes():
        for a in model.actions(t, s):
            seen.add(categories.get(a, a))
    category_order = tuple(sorted(seen))

    return Scenario(
        name=name,
        seed=seed,
        model=model,
        ambiguity=ambiguity,
        policy=policy,
        risk_spec=risk_spec,
        safe_defaults=sdm,
        boundaries=boundaries,
        exposure=exposure,
        gate=gate,
        envelope_config=envelope_config,
        action_categories=categories,
        category_order=category_order,
        raw=_canonical(doc),
    )


def _resolve_safe_defaults(doc: Mapping, model: EnvironmentModel) -> SafeDefaultMap:
    entries: dict[tuple[int, str, str], str] = {}
    for i, rec in enumerate(optional_field(doc, "safe_defaults", as_objects, "", [])):
        key, default = safe_default_entry(rec, f"safe_defaults[{i}]")
        if not model.has_node(key[0], key[1]):
            raise ScenarioReferenceError(
                f"safe default names unknown node ({key[0]}, {key[1]!r})",
                path=f"safe_defaults[{i}]",
            )
        entries[key] = default
    sdm = SafeDefaultMap.from_entries(entries, model)
    for t, s in model.all_nodes():
        for a in model.actions(t, s):
            if a == model.null_action:
                continue
            if is_side_effect_bearing(model, t, s, a) and (t, s, a) not in entries:
                raise ScenarioInvariantError(
                    f"action {a!r} at ({t}, {s!r}) bears side effects but has no "
                    "safe-default entry; every priced action needs its contractual "
                    "minimal-authority substitute declared up front",
                    path=f"safe_defaults[{t},{s},{a}]",
                )
    return sdm


def _resolve_ambiguity(doc: Mapping, base: EnvironmentModel) -> AmbiguitySet:
    models = [base]
    base_spec = doc.get("model", {})
    for i, variant in enumerate(optional_field(doc, "ambiguity", as_objects, "", [])):
        spec = copy.deepcopy(dict(base_spec))
        for j, ov in enumerate(
            optional_field(variant, "kernel_overrides", as_objects, f"ambiguity[{i}]", [])
        ):
            path = f"ambiguity[{i}].kernel_overrides[{j}]"
            t = read_field(ov, "time", as_int, path)
            s = read_field(ov, "state", str, path)
            a = read_field(ov, "action", str, path)
            found = False
            for node in spec.get("nodes", []):
                if int(node["time"]) == t and str(node["state"]) == s:
                    if a not in node.get("actions", {}):
                        raise ScenarioReferenceError(
                            f"override names unknown action {a!r}", path=path
                        )
                    node["actions"][a]["kernel"] = read_field(ov, "kernel", dict, path)
                    found = True
                    break
            if not found:
                raise ScenarioReferenceError(
                    f"override names unknown node ({t}, {s!r})", path=path
                )
        overrides = optional_field(variant, "loss_overrides", as_object, f"ambiguity[{i}]", {})
        for leaf in overrides:
            if leaf not in spec.get("terminal_losses", {}):
                raise ScenarioReferenceError(
                    f"loss override names unknown leaf {leaf!r}",
                    path=f"ambiguity[{i}].loss_overrides[{leaf}]",
                )
            spec["terminal_losses"][leaf] = read_field(
                overrides, leaf, float, f"ambiguity[{i}].loss_overrides"
            )
        models.append(build_model(spec))
    return AmbiguitySet(models=tuple(models))


def _resolve_policy(doc: Mapping, model: EnvironmentModel) -> Policy:
    entries: dict[tuple[int, str], dict[str, float]] = {}
    for i, rec in enumerate(optional_field(doc, "policy", as_objects, "", [])):
        path = f"policy[{i}]"
        t, s = read_field(rec, "time", as_int, path), read_field(rec, "state", str, path)
        if not model.has_node(t, s):
            raise ScenarioReferenceError(f"policy names unknown node ({t}, {s!r})", path=path)
        entries[(t, s)] = read_field(
            rec, "probs", lambda probs: {str(a): float(p) for a, p in probs.items()}, path
        )
    for t, s in model.all_nodes():
        if (t, s) not in entries:
            raise ScenarioInvariantError(
                f"policy undefined at node ({t}, {s!r}); the frozen policy must "
                "cover every decision node",
                path=f"policy[{t},{s}]",
            )
    return Policy.from_entries(entries, model)


def _resolve_risk(doc: Mapping) -> RiskSpec:
    rec = optional_field(doc, "risk", as_object, "", {"kind": "expectation"})
    return RiskSpec(
        kind=str(rec.get("kind", "expectation")),
        gamma=optional_field(rec, "gamma", float, "risk", None),
        alpha=optional_field(rec, "alpha", float, "risk", None),
    )


def _float_tuple(values) -> tuple[float, ...]:
    return tuple(float(x) for x in values)


def _str_tuple(values) -> tuple[str, ...]:
    return tuple(str(x) for x in values)


def _str_map(rec) -> dict[str, str]:
    return {str(k): str(v) for k, v in rec.items()}


def _knots(dims) -> tuple[tuple[tuple[float, float], ...], ...]:
    return tuple(tuple((float(x), float(y)) for x, y in dim) for dim in dims)


def _resolve_boundaries(doc: Mapping) -> tuple[BoundarySpec, ...]:
    out = []
    for i, rec in enumerate(optional_field(doc, "boundaries", as_objects, "", [])):
        path = f"boundaries[{i}]"
        pot_rec = optional_field(rec, "potential", as_object, path, {})
        pot_path = f"{path}.potential"
        pot = PotentialSpec(
            kind=str(pot_rec.get("kind", "linear")),
            weights=optional_field(pot_rec, "weights", _float_tuple, pot_path, ()),
            exponent=optional_field(pot_rec, "exponent", float, pot_path, 1.0),
            knots=optional_field(pot_rec, "knots", _knots, pot_path, ()),
        )
        out.append(
            BoundarySpec(
                boundary_id=read_field(rec, "id", str, path),
                dimension=optional_field(rec, "dimension", as_int, path, pot.dimension),
                potential=pot,
                outside_state=str(rec.get("outside_state", "")),
            )
        )
    return tuple(out)


def _resolve_exposure(
    doc: Mapping, model: EnvironmentModel, boundaries: Sequence[BoundarySpec]
) -> dict[tuple[int, str, str], dict[str, tuple[float, ...]]]:
    dims = {b.boundary_id: b.dimension for b in boundaries}
    out: dict[tuple[int, str, str], dict[str, tuple[float, ...]]] = {}
    for i, nrec in enumerate(doc.get("model", {}).get("nodes", [])):
        t, s = int(nrec["time"]), str(nrec["state"])
        for a, arec in nrec.get("actions", {}).items():
            apath = f"model.nodes[{i}].actions[{a}]"
            increments = optional_field(arec, "exposure", as_object, apath, {})
            path = f"{apath}.exposure"
            for bid in increments:
                if bid not in dims:
                    raise ScenarioReferenceError(
                        f"exposure names unknown boundary {bid!r}", path=path
                    )
                vec = read_field(increments, bid, _float_tuple, path)
                if len(vec) != dims[bid]:
                    raise ScenarioInvariantError(
                        f"exposure increment has dimension {len(vec)}, boundary "
                        f"{bid!r} expects {dims[bid]}",
                        path=path,
                    )
                if not all(x >= 0 and math.isfinite(x) for x in vec):
                    raise ScenarioInvariantError(
                        "exposure increments must be finite and componentwise >= 0", path=path
                    )
                out.setdefault((t, s, str(a)), {})[bid] = vec
    return out


def _resolve_gate_params(doc: Mapping) -> GateParams:
    rec = optional_field(doc, "gate", as_object, "", {})
    budget = optional_field(rec, "initial_budget", float, "gate", 0.0)
    order = optional_field(rec, "fallback_order", _str_tuple, "gate", ("downgrade", "block"))
    policy = optional_field(rec, "escalation_policy", _str_map, "gate", {})
    if budget < 0:
        raise ScenarioInvariantError("initial budget must be >= 0", path="gate.initial_budget")
    for action, ruling in policy.items():
        if ruling not in ("approve", "deny"):
            raise ScenarioInvariantError(
                f"escalation ruling must be 'approve' or 'deny', not {ruling!r}",
                path=f"gate.escalation_policy.{action}",
            )
    return GateParams(initial_budget=budget, fallback_order=order, escalation_policy=policy)


def _resolve_envelope(doc: Mapping) -> dict:
    """The envelope section; a conformal one gets its ``delta``,
    ``calibration_episodes`` and ``training_episodes`` converted, defaults
    filled in."""
    config = dict(optional_field(doc, "envelope", as_object, "", {"kind": "exact"}))
    kind = config.get("kind")
    if kind == "conformal":
        config["delta"] = optional_field(config, "delta", float, "envelope", 0.1)
        for key, default in (("calibration_episodes", 200), ("training_episodes", 100)):
            config[key] = optional_field(config, key, as_int, "envelope", default)
    elif kind != "exact":
        raise ScenarioInvariantError(f"unknown envelope kind {kind!r}", path="envelope.kind")
    return config


def _canonical(doc: Mapping) -> dict:
    return json.loads(json.dumps(doc, sort_keys=True))


def config_hash(scenario: Scenario) -> str:
    """Hash of the resolved document; any change to the model family, policy,
    risk mapping, safe defaults, or boundaries changes the digest."""
    blob = json.dumps(scenario.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# runtime assembly


def make_exact_envelope(scenario: Scenario) -> Envelope:
    return exact_envelope(
        scenario.model, scenario.policy, scenario.risk_spec, scenario.safe_defaults
    )


def build_gate_config(
    scenario: Scenario,
    envelope: Envelope,
    exact_quoter: Envelope | None = None,
    budget_override: float | None = None,
) -> GateConfig:
    budget = scenario.gate.initial_budget if budget_override is None else budget_override
    return GateConfig(
        initial_budget=budget,
        fallback_order=scenario.gate.fallback_order,
        envelope=envelope,
        safe_defaults=scenario.safe_defaults,
        escalation_policy=scenario.gate.escalation_policy,
        exact_quoter=exact_quoter,
        boundaries=scenario.boundaries,
        exposure=scenario.exposure,
    )


def feature_vector(scenario: Scenario, time: int, state: str, action: str) -> tuple[float, ...]:
    """Features for the envelope predictor: bias, total exposure increment,
    time, and a one-hot action category."""
    incs = scenario.exposure.get((time, state, action), {})
    total_exposure = sum(sum(vec) for vec in incs.values())
    category = scenario.action_categories.get(action, action)
    onehot = tuple(1.0 if c == category else 0.0 for c in scenario.category_order)
    return (1.0, float(total_exposure), float(time)) + onehot


def frozen_rollout_quotes(
    scenario: Scenario,
    exact: Envelope,
    episodes: int,
    seed: int,
    episode_offset: int = 0,
) -> list[list[tuple[tuple[int, str, str], float]]]:
    """Per-episode proposal quotes under the frozen policy, priced by the
    scenario's exact envelope ``exact``.

    Each episode contributes its list of ((time, state, action), true
    positive toll) pairs, one per step, in step order. The rollouts are an
    evaluation run whose budget never binds: under the exact envelope and an
    infinite budget every proposal executes, so the executed action is
    always the proposal.
    """
    cfg = GateConfig(
        initial_budget=math.inf,
        fallback_order=("block",),
        envelope=exact,
        safe_defaults=scenario.safe_defaults,
    )
    out = []
    for ep in range(episodes):
        log = run_episode(scenario.model, scenario.policy, cfg, seed, episode_offset + ep)
        out.append([((e.time, e.state, e.proposed), e.envelope_value) for e in log.entries])
    return out


def calibrate_conformal(
    scenario: Scenario,
    exact: Envelope,
    n: int,
    delta: float,
    seed: int,
    training_episodes: int,
) -> tuple[Envelope, list[dict]]:
    """Fit the fast-tier envelope from frozen-policy rollouts priced by the
    scenario's exact envelope ``exact``; return it with one calibration row
    per calibration episode.

    A linear predictor is fit on pooled quotes from a training block of
    episodes; the conformal margin is then calibrated on one score per
    calibration episode, namely the quote with the largest one-sided
    residual, so the fitted margin covers an evaluation episode's whole
    query set at the requested confidence.
    """
    feature = lambda t, s, a: feature_vector(scenario, t, s, a)
    train = frozen_rollout_quotes(scenario, exact, training_episodes, seed)
    pooled = [q for ep in train for q in ep]
    predictor = least_squares_predictor(feature, pooled)

    calib = frozen_rollout_quotes(scenario, exact, n, seed, episode_offset=training_episodes)
    picked: list[tuple[tuple[int, str, str], float]] = []
    rows: list[dict] = []
    for ep_quotes in calib:
        scored = [
            (true - predictor(t, s, a), (t, s, a), true) for (t, s, a), true in ep_quotes
        ]
        scored.sort(key=lambda item: item[0])
        _, key, true = scored[-1]
        picked.append((key, true))
        rows.append(
            {
                "time": key[0],
                "state": key[1],
                "action": key[2],
                "features": list(feature(*key)),
                "true_positive_toll": true,
            }
        )
    return fit_conformal_envelope(predictor, picked, delta), rows
