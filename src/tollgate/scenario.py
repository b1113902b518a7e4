"""Scenario documents: loading, validation, runtime assembly, calibration.

A scenario is one JSON document with an explicit schema version tying
together every primitive a run needs: the environment model, the ambiguity
variants, the frozen policy (it is both the pricing continuation and the
proposal stream), the risk mapping, safe defaults, boundaries with their
potentials, per-action exposure increments, the gate, and the envelope
configuration. All randomness is seeded through the document or the CLI;
nothing ambient.

Loader failures carry distinct codes: ``parse`` for unreadable documents,
``unresolved-reference`` for ids that do not resolve, and ``invariant`` for
structural violations. Every error names the offending field by its path
from the document root.
"""

from __future__ import annotations

import hashlib
import json
import math
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .boundary import BoundarySpec, PotentialSpec
from .envelope import (
    Envelope,
    conformal_rank,
    exact_envelope,
    fit_conformal_envelope,
    least_squares_predictor,
)
from .envmodel import (
    EnvironmentModel,
    Policy,
    SafeDefaultMap,
    as_int,
    as_number,
    as_object,
    as_objects,
    as_str,
    build_model,
    is_side_effect_bearing,
    optional_field,
    read_field,
    safe_default_entry,
)
from .exceptions import (
    CalibrationSizeError,
    ModelValidationError,
    ScenarioError,
    ScenarioParseError,
    ScenarioReferenceError,
)
from .gate import Gate, GateConfig, run_episode
from .risk import RiskSpec
from .tolls import AmbiguitySet

SCHEMA_VERSION = 1
BUNDLED_SCENARIOS = ("payments", "database", "trading")


class Scenario(NamedTuple):
    """Fully resolved scenario: every id checked, every object built.

    ``gate`` is the scenario's one gate, validated at load. Its ``envelope``
    and ``exact_quoter`` are both the scenario's one exact envelope; a caller
    that quotes through another tier or budget ``_replace``-s it.
    ``raw`` is the document as given, not a copy: its readers dump it with
    sorted keys, and nothing mutates a document after resolving it.
    """

    name: str
    seed: int
    model: EnvironmentModel
    ambiguity: AmbiguitySet
    policy: Policy
    risk_spec: RiskSpec
    safe_defaults: SafeDefaultMap
    boundaries: tuple[BoundarySpec, ...]
    exposure: dict[tuple[int, str, str], dict[str, tuple[float, ...]]]
    gate: GateConfig
    envelope_config: dict
    action_categories: dict[str, str]
    category_order: tuple[str, ...]
    raw: Mapping


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    if name not in BUNDLED_SCENARIOS:
        raise ScenarioReferenceError(f"no bundled scenario named {name!r}", path="name")
    return Path(str(resources.files("tollgate").joinpath(f"scenarios/{name}.scn.json")))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"not UTF-8 text: {exc}", path=str(path)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc}", path=str(path)) from exc
    except RecursionError:
        raise ScenarioParseError("JSON nested too deeply to decode", path=str(path)) from None
    return resolve_scenario(doc)


def resolve_scenario(doc: Mapping) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    version = optional_field(doc, "schema_version", as_int, "", None)
    if version != SCHEMA_VERSION:
        raise ModelValidationError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}",
            path="schema_version",
        )
    name = optional_field(doc, "name", as_str, "", "unnamed")
    seed = optional_field(doc, "seed", as_int, "", 0)
    if seed < 0:
        raise ModelValidationError(f"seed must be >= 0, got {seed}", path="seed")

    spec = optional_field(doc, "model", as_object, "", {})
    try:
        model = build_model(spec)
    except ScenarioError as exc:
        raise exc.under("model") from None

    sdm = _resolve_safe_defaults(doc, model)
    ambiguity = _resolve_ambiguity(doc, model)
    policy = _resolve_policy(doc, model)
    risk_spec = _resolve_risk(doc)
    boundaries = _resolve_boundaries(doc)
    exposure = _resolve_exposure(doc, model, boundaries)
    actions = {a for t, s in model.all_nodes() for a in model.actions(t, s)}
    exact = exact_envelope(model, policy, risk_spec, sdm)
    gate = GateConfig(
        envelope=exact, exact_quoter=exact, safe_defaults=sdm,
        boundaries=boundaries, exposure=exposure, **_resolve_gate_fields(doc, actions),
    )
    envelope_config = _resolve_envelope(doc)

    categories = optional_field(doc, "action_categories", _str_map, "", {})
    for action in categories:
        if action not in actions:
            raise ScenarioReferenceError(
                f"action categories name unknown action {action!r}",
                path=f"action_categories.{action}",
            )
    category_order = tuple(sorted({categories.get(a, a) for a in actions}))

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
        raw=doc,
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
            if a == model.null_action or (t, s, a) in entries:
                continue
            if is_side_effect_bearing(model, t, s, a):
                raise ModelValidationError(
                    f"action {a!r} at ({t}, {s!r}) bears side effects but has no "
                    "safe-default entry; every priced action needs its contractual "
                    "minimal-authority substitute declared up front",
                    path=f"safe_defaults[{t},{s},{a}]",
                )
    return sdm


def _resolve_ambiguity(doc: Mapping, base: EnvironmentModel) -> AmbiguitySet:
    models = [base]
    for i, variant in enumerate(optional_field(doc, "ambiguity", as_objects, "", [])):
        optional_field(variant, "name", as_str, f"ambiguity[{i}]", "")  # a label, only checked
        rows, paths = {}, {}
        for j, ov in enumerate(
            optional_field(variant, "kernel_overrides", as_objects, f"ambiguity[{i}]", [])
        ):
            path = f"ambiguity[{i}].kernel_overrides[{j}]"
            t = read_field(ov, "time", as_int, path)
            s = read_field(ov, "state", as_str, path)
            a = read_field(ov, "action", as_str, path)
            if not base.has_node(t, s):
                raise ScenarioReferenceError(
                    f"override names unknown node ({t}, {s!r})", path=path
                )
            if a not in base.actions(t, s):
                raise ScenarioReferenceError(f"override names unknown action {a!r}", path=path)
            if (t, s, a) in rows:
                raise ModelValidationError(f"repeated override of action {a!r}", path=path)
            rows[(t, s, a)] = read_field(ov, "kernel", as_object, path)
            paths[(t, s, a)] = path
        overrides = optional_field(variant, "loss_overrides", as_object, f"ambiguity[{i}]", {})
        for leaf in overrides:
            if leaf not in base.terminal_states:
                raise ScenarioReferenceError(
                    f"loss override names unknown leaf {leaf!r}",
                    path=f"ambiguity[{i}].loss_overrides[{leaf}]",
                )
        models.append(base.replaced(rows, overrides, paths, f"ambiguity[{i}].loss_overrides"))
    return AmbiguitySet(models=tuple(models))


def _resolve_policy(doc: Mapping, model: EnvironmentModel) -> Policy:
    entries: dict[tuple[int, str], dict[str, float]] = {}
    for i, rec in enumerate(optional_field(doc, "policy", as_objects, "", [])):
        path = f"policy[{i}]"
        t, s = read_field(rec, "time", as_int, path), read_field(rec, "state", as_str, path)
        if not model.has_node(t, s):
            raise ScenarioReferenceError(f"policy names unknown node ({t}, {s!r})", path=path)
        entries[(t, s)] = read_field(
            rec, "probs", lambda probs: {a: as_number(p) for a, p in probs.items()}, path
        )
    for t, s in model.all_nodes():
        if (t, s) not in entries:
            raise ModelValidationError(
                f"policy undefined at node ({t}, {s!r}); the frozen policy must "
                "cover every decision node",
                path=f"policy[{t},{s}]",
            )
    return Policy.from_entries(entries, model)


def _resolve_risk(doc: Mapping) -> RiskSpec:
    rec = optional_field(doc, "risk", as_object, "", {"kind": "expectation"})
    return RiskSpec(
        kind=optional_field(rec, "kind", as_str, "risk", "expectation"),
        gamma=optional_field(rec, "gamma", as_number, "risk", None),
        alpha=optional_field(rec, "alpha", as_number, "risk", None),
    )


def _float_tuple(values) -> tuple[float, ...]:
    return tuple(as_number(x) for x in values)


def _str_tuple(values) -> tuple[str, ...]:
    if not isinstance(values, list):
        raise TypeError("expected an array of strings")
    return tuple(as_str(x) for x in values)


def _str_map(rec) -> dict[str, str]:
    return {k: as_str(v) for k, v in rec.items()}


def _knots(dims) -> tuple[tuple[tuple[float, float], ...], ...]:
    return tuple(tuple((as_number(x), as_number(y)) for x, y in dim) for dim in dims)


def _resolve_boundaries(doc: Mapping) -> tuple[BoundarySpec, ...]:
    out = []
    for i, rec in enumerate(optional_field(doc, "boundaries", as_objects, "", [])):
        path = f"boundaries[{i}]"
        pot_rec = optional_field(rec, "potential", as_object, path, {})
        pot_path = f"{path}.potential"
        try:
            pot = PotentialSpec(
                kind=optional_field(pot_rec, "kind", as_str, pot_path, "linear"),
                weights=optional_field(pot_rec, "weights", _float_tuple, pot_path, ()),
                exponent=optional_field(pot_rec, "exponent", as_number, pot_path, 1.0),
                knots=optional_field(pot_rec, "knots", _knots, pot_path, ()),
            )
            spec = BoundarySpec(
                boundary_id=read_field(rec, "id", as_str, path),
                dimension=optional_field(rec, "dimension", as_int, path, pot.dimension),
                potential=pot,
                outside_state=optional_field(rec, "outside_state", as_str, path, ""),
            )
        except ModelValidationError as exc:
            raise exc.under(path) from None
        if any(b.boundary_id == spec.boundary_id for b in out):
            raise ModelValidationError(
                f"duplicate boundary id {spec.boundary_id!r}", path=f"{path}.id"
            )
        out.append(spec)
    return tuple(out)


def _resolve_exposure(
    doc: Mapping, model: EnvironmentModel, boundaries: Sequence[BoundarySpec]
) -> dict[tuple[int, str, str], dict[str, tuple[float, ...]]]:
    dims = {b.boundary_id: b.dimension for b in boundaries}
    out: dict[tuple[int, str, str], dict[str, tuple[float, ...]]] = {}
    for i, nrec in enumerate(doc.get("model", {}).get("nodes", [])):
        t, s = int(nrec["time"]), nrec["state"]
        for a, arec in nrec.get("actions", {}).items():
            apath = f"model.nodes[{i}].actions[{a}]"
            increments = optional_field(arec, "exposure", as_object, apath, {})
            path = f"{apath}.exposure"
            # committed in sorted order, whatever the document's key order
            for bid in sorted(increments):
                if bid not in dims:
                    raise ScenarioReferenceError(
                        f"exposure names unknown boundary {bid!r}", path=path
                    )
                vec = read_field(increments, bid, _float_tuple, path)
                if len(vec) != dims[bid]:
                    raise ModelValidationError(
                        f"exposure increment has dimension {len(vec)}, boundary "
                        f"{bid!r} expects {dims[bid]}",
                        path=path,
                    )
                if not all(x >= 0 and math.isfinite(x) for x in vec):
                    raise ModelValidationError(
                        "exposure increments must be finite and componentwise >= 0", path=path
                    )
                out.setdefault((t, s, a), {})[bid] = vec
    return out


def _resolve_gate_fields(doc: Mapping, actions: set[str]) -> dict:
    """The gate section's ``GateConfig`` fields. ``GateConfig`` itself
    refuses a negative or NaN budget and an empty, unknown or repeated
    fallback mode."""
    rec = optional_field(doc, "gate", as_object, "", {})
    budget = optional_field(rec, "initial_budget", as_number, "gate", 0.0)
    order = optional_field(rec, "fallback_order", _str_tuple, "gate", ("downgrade", "block"))
    rulings = optional_field(rec, "escalation_policy", _str_map, "gate", {})
    for action, ruling in rulings.items():
        path = f"gate.escalation_policy.{action}"
        if action != "default" and action not in actions:
            raise ScenarioReferenceError(
                f"escalation policy names unknown action {action!r}", path=path
            )
        if ruling not in ("approve", "deny"):
            raise ModelValidationError(
                f"escalation ruling must be 'approve' or 'deny', not {ruling!r}", path=path
            )
    return {"initial_budget": budget, "fallback_order": order, "escalation_policy": rulings}


def _resolve_envelope(doc: Mapping) -> dict:
    """The envelope section; a conformal one gets its ``delta``,
    ``calibration_episodes`` and ``training_episodes`` converted, defaults
    filled in, and is refused unless it can calibrate: delta in (0, 1), a
    conformal rank within the calibration episodes, and a training episode."""
    config = dict(optional_field(doc, "envelope", as_object, "", {"kind": "exact"}))
    kind = config.get("kind")
    if kind == "conformal":
        config["delta"] = optional_field(config, "delta", as_number, "envelope", 0.1)
        for key, default in (("calibration_episodes", 200), ("training_episodes", 100)):
            config[key] = optional_field(config, key, as_int, "envelope", default)
        try:
            conformal_rank(config["calibration_episodes"], config["delta"])
        except ModelValidationError as exc:
            raise exc.under("envelope") from None
        except CalibrationSizeError as exc:
            # a TollgateError, which calibrate's own refusal exits 1 with
            raise ModelValidationError(str(exc), path="envelope.calibration_episodes") from None
        if config["training_episodes"] < 1:
            raise ModelValidationError(
                "training_episodes must be >= 1", path="envelope.training_episodes"
            )
    elif kind != "exact":
        raise ModelValidationError(f"unknown envelope kind {kind!r}", path="envelope.kind")
    return config


def document_bytes(document: Mapping) -> bytes:
    """A scenario document, as decoded, in one canonical text: compact JSON
    with sorted keys, which is ASCII. :func:`config_hash` hashes these
    bytes, and a run's manifest embeds them as they are."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("ascii")


def document_hash(document: bytes) -> str:
    """The ``config_hash`` of a scenario whose :func:`document_bytes` are
    ``document``."""
    return hashlib.sha256(document).hexdigest()


def config_hash(scenario: Scenario) -> str:
    """Hash of the resolved document; any change to the model family, policy,
    risk mapping, safe defaults, or boundaries changes the digest."""
    return document_hash(document_bytes(scenario.raw))


# ---------------------------------------------------------------------------
# calibration


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
    episodes: int,
    seed: int,
    episode_offset: int = 0,
) -> list[list[tuple[tuple[int, str, str], float]]]:
    """Per-episode proposal quotes under the frozen policy, priced by the
    scenario's exact envelope.

    Each episode contributes its list of ((time, state, action), true
    positive toll) pairs, one per step, in step order. The rollouts are the
    scenario's gate with a budget that never binds: every proposal executes,
    so the fallback chain never runs and the executed action is always the
    proposal. Only the quotes are kept, so no exposure is committed.
    """
    cfg = scenario.gate._replace(initial_budget=math.inf, exposure={})
    gate = Gate(scenario.model, scenario.policy, cfg)
    out = []
    for ep in range(episodes):
        log = run_episode(gate, seed, episode_offset + ep)
        out.append([((e.time, e.state, e.proposed), e.envelope_value) for e in log.entries])
    return out


def calibrate_conformal(
    scenario: Scenario,
    n: int,
    delta: float,
    seed: int,
    training_episodes: int,
) -> tuple[Envelope, list[dict]]:
    """Fit the fast-tier envelope from frozen-policy rollouts priced by the
    scenario's exact envelope; return it with one calibration row per
    calibration episode.

    A linear predictor is fit on pooled quotes from a training block of
    episodes; the conformal margin is then calibrated on one score per
    calibration episode, namely the quote with the largest one-sided
    residual, so the fitted margin covers an evaluation episode's whole
    query set at the requested confidence.
    """
    feature = lambda t, s, a: feature_vector(scenario, t, s, a)
    train = frozen_rollout_quotes(scenario, training_episodes, seed)
    pooled = [q for ep in train for q in ep]
    predictor = least_squares_predictor(feature, pooled)

    calib = frozen_rollout_quotes(scenario, n, seed, episode_offset=training_episodes)
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


def run_gate(scenario: Scenario, seed: int) -> tuple[Gate, dict]:
    """The gate ``run`` gates the episodes of ``scenario`` at ``seed``
    through, and the manifest's record of its envelope tier: ``{"kind":
    "exact"}``, or for a conformal envelope the ``delta``, the fitted
    ``inflation`` and ``quantile_rank``, and the ``calibration_episodes``.
    A conformal envelope is calibrated here, from the document and the seed
    alone, so ``report`` rebuilds the gate of a run from its manifest; an
    exact one is the scenario's own and never calibrates."""
    cfg, record = scenario.gate, {"kind": "exact"}
    if scenario.envelope_config["kind"] == "conformal":
        delta = scenario.envelope_config["delta"]
        n = scenario.envelope_config["calibration_episodes"]
        envelope, _ = calibrate_conformal(
            scenario, n, delta, seed=seed + 10_000,
            training_episodes=scenario.envelope_config["training_episodes"],
        )
        cfg = cfg._replace(envelope=envelope)
        record = {
            "kind": "conformal",
            "delta": delta,
            "inflation": envelope.inflation,
            "quantile_rank": envelope.quantile_rank,
            "calibration_episodes": n,
        }
    return Gate(scenario.model, scenario.policy, cfg), record
