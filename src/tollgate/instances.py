"""Instances the property suites of :mod:`tollgate.verify` run on.

Random layered trees, policies, loss pairs, kernel jitters, potentials and
partitions; the one-step axiom fuzzer; the two-stage shortfall instance of
result (i); the witnesses of result (iii); a predictor biased for a negative
control. Nothing here runs in ``run``, ``report`` or ``calibrate``.

The payment witnesses are the shipped ``payments`` scenario document plus
named edits. The document prices an invoice-payment agent: wiring funds now
versus drafting a payment for approval. An exogenous fraud flag moves both
rollouts together; wiring into fraud loses the funds while drafting gets
caught in review, so the executed branch carries a large loss gap exactly on
the fraud event, recall can claw back only a sliver of it, and the default
branch still sees the event with positive probability. Its ``fraud_stress``
ambiguity variant is the witness model. The edits flip each certificate
condition off individually, and a randomised family that redraws the
document's fraud rate and losses feeds the structural property suites.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple, Sequence

# The fuzzer reaches risk._sigma through its module at call time, so a fault
# patched into it reaches the fuzzer too.
from . import risk
from .boundary import PotentialSpec
from .envelope import Predictor
from .envmodel import EnvironmentModel, Policy, SafeDefaultMap, build_model
from .exceptions import fold
from .risk import RiskSpec
from .scenario import bundled_scenario_path, resolve_scenario
from .tolls import AmbiguitySet, WitnessSpec

# The slack every property check of the fuzzer and the suites allows.
_TOL = 1e-9


# ---------------------------------------------------------------------------
# random instances


def random_layered_model(rng: random.Random, max_depth: int = 6) -> EnvironmentModel:
    """Layered tree with random kernels and losses, null action everywhere."""
    depth = rng.randint(2, max_depth)
    sizes = [1] + [rng.randint(1, 3) for _ in range(depth)]
    layer_states = [[f"t{t}s{i}" for i in range(n)] for t, n in enumerate(sizes)]
    states = [
        {"id": sid, "components": {"x": i}}
        for t, layer in enumerate(layer_states)
        for i, sid in enumerate(layer)
    ]
    nodes = []
    for t in range(depth):
        after = layer_states[t + 1]
        for sid in layer_states[t]:
            actions = {}
            for j in range(rng.randint(1, 3)):
                name = "noop" if j == 0 else f"a{j}"
                targets = rng.sample(after, rng.randint(1, min(3, len(after))))
                probs = _normalised([rng.random() + 0.05 for _ in targets])
                actions[name] = {"kernel": dict(zip(targets, probs))}
            nodes.append({"time": t, "state": sid, "actions": actions})
    losses = {sid: rng.uniform(0.0, 5.0) for sid in layer_states[depth]}
    return build_model(
        {
            "horizon": depth,
            "components": [{"name": "x", "external": True}],
            "states": states,
            "initial_state": layer_states[0][0],
            "null_action": "noop",
            "nodes": nodes,
            "terminal_losses": losses,
        }
    )


def _normalised(weights: list[float]) -> list[float]:
    total = fold(weights)
    return [w / total for w in weights]


def random_policy(rng: random.Random, model: EnvironmentModel) -> Policy:
    entries = {}
    for t, s in model.all_nodes():
        actions = model.actions(t, s)
        entries[(t, s)] = dict(zip(actions, _normalised([rng.random() + 0.05 for _ in actions])))
    return Policy.from_entries(entries, model)


def random_loss_pair(
    rng: random.Random, model: EnvironmentModel, ordered: bool
) -> tuple[dict[str, float], dict[str, float]]:
    leaves = model.terminal_states
    x = {s: rng.uniform(0.0, 5.0) for s in leaves}
    if ordered:
        y = {s: x[s] + rng.uniform(0.0, 3.0) for s in leaves}
    else:
        y = {s: rng.uniform(0.0, 5.0) for s in leaves}
    return x, y


def rekernel(rng: random.Random, model: EnvironmentModel) -> EnvironmentModel:
    """Same skeleton, jittered kernels (support preserved)."""
    rows = {}
    for t, s in model.all_nodes():
        for a in model.actions(t, s):
            row = model.kernel(t, s, a)
            probs = _normalised([p + rng.uniform(0.01, 0.5) for _, p in row])
            rows[(t, s, a)] = {nxt: q for (nxt, _), q in zip(row, probs)}
    return model.replaced(rows=rows)


def random_potential(rng: random.Random) -> PotentialSpec:
    kind = rng.choice(("linear", "power", "piecewise_convex"))
    d = rng.randint(1, 3)
    if kind == "linear":
        return PotentialSpec(kind="linear", weights=uniforms(rng, 0.0, 3.0, d))
    if kind == "power":
        return PotentialSpec(
            kind="power", weights=uniforms(rng, 0.0, 3.0, d), exponent=rng.uniform(1.0, 3.0)
        )
    knots = []
    for _ in range(d):
        # four segments of random width, each at least as steep as the last
        pts, slope = [(0.0, 0.0)], 0.0
        for _ in range(4):
            width, slope = rng.uniform(0.5, 3.0), slope + rng.uniform(0.0, 2.0)
            pts.append((pts[-1][0] + width, pts[-1][1] + slope * width))
        knots.append(tuple(pts))
    return PotentialSpec(kind="piecewise_convex", knots=tuple(knots))


def uniforms(rng: random.Random, low: float, high: float, n: int) -> tuple[float, ...]:
    return tuple(rng.uniform(low, high) for _ in range(n))


def random_partition(
    rng: random.Random, total: Sequence[float], pieces: int
) -> list[tuple[float, ...]]:
    """``total`` cut into ``pieces`` nonnegative increments at sorted uniform
    cut points per dimension, in a random order; one piece draws nothing."""
    columns = []
    for x in total:
        bounds = [0.0, *sorted(rng.random() for _ in range(pieces - 1)), 1.0]
        columns.append([(hi - lo) * x for lo, hi in zip(bounds, bounds[1:])])
    steps = list(zip(*columns))
    rng.shuffle(steps)
    return steps


# ---------------------------------------------------------------------------
# one-step axiom fuzzing


CORE_AXIOMS = ("normalisation", "monotonicity", "locality", "translation_invariance", "convexity")


def check_axioms(spec: RiskSpec, seed: int) -> dict[str, dict | None]:
    """Randomised property fuzzing of the one-step mapping on finite
    distributions, over 1,000 trials: each of the five core axioms and a
    positive-homogeneity probe, mapped to its first witnessing
    counterexample, or None if it held on every trial. Fuzzing continues
    past a failure, so one call covers all six properties.
    """
    rng = random.Random(seed)
    sigma = risk._sigma
    failures: dict[str, dict | None] = dict.fromkeys(CORE_AXIOMS + ("positive_homogeneity",))

    for _ in range(1000):
        n = rng.randint(1, 6)
        raw = [rng.random() + 1e-3 for _ in range(n)]
        probs = _normalised(raw)
        x = [rng.uniform(-5.0, 5.0) for _ in range(n)]
        y = [xi + rng.uniform(0.0, 4.0) for xi in x]
        lam = rng.uniform(0.0, 1.0)
        shift = rng.uniform(-3.0, 3.0)
        scale = rng.choice((0.5, 2.0, 3.0))

        zero = sigma(spec, [0.0] * n, probs)
        if failures["normalisation"] is None and abs(zero) > _TOL:
            failures["normalisation"] = {"probs": probs, "sigma_zero": zero}

        sx, sy = sigma(spec, x, probs), sigma(spec, y, probs)
        if failures["monotonicity"] is None and sx > sy + _TOL:
            failures["monotonicity"] = {"probs": probs, "x": x, "y": y, "sx": sx, "sy": sy}

        # Locality: an atom of zero probability is an unrealised branch, so
        # whatever loss it carries must leave the value unchanged.
        pos = rng.randint(0, n)
        ghost = rng.uniform(-10.0, 10.0)
        local = sigma(spec, x[:pos] + [ghost] + x[pos:], probs[:pos] + [0.0] + probs[pos:])
        if failures["locality"] is None and abs(local - sx) > _TOL:
            failures["locality"] = {
                "probs": probs, "x": x, "position": pos, "ghost": ghost, "lhs": local, "rhs": sx,
            }

        st = sigma(spec, [v + shift for v in x], probs)
        if failures["translation_invariance"] is None and abs(st - (sx + shift)) > _TOL:
            failures["translation_invariance"] = {
                "probs": probs, "x": x, "shift": shift, "lhs": st, "rhs": sx + shift,
            }

        mix = [lam * a + (1 - lam) * b for a, b in zip(x, y)]
        smix = sigma(spec, mix, probs)
        bound = lam * sx + (1 - lam) * sy
        if failures["convexity"] is None and smix > bound + _TOL:
            failures["convexity"] = {
                "probs": probs, "x": x, "y": y, "lam": lam, "lhs": smix, "rhs": bound,
            }

        sscale = sigma(spec, [scale * v for v in x], probs)
        if failures["positive_homogeneity"] is None and abs(sscale - scale * sx) > _TOL:
            failures["positive_homogeneity"] = {
                "probs": probs, "x": x, "scale": scale, "lhs": sscale, "rhs": scale * sx,
            }

    return failures


# ---------------------------------------------------------------------------
# the two-stage shortfall instance


def cvar_demo_model() -> tuple[EnvironmentModel, Policy]:
    spec = {
        "horizon": 2,
        "components": [{"name": "branch", "external": False}],
        "states": [
            {"id": "root", "components": {"branch": "r"}},
            {"id": "broad", "components": {"branch": "u"}},
            {"id": "narrow", "components": {"branch": "d"}},
            {"id": "broad_hit", "components": {"branch": "uu"}},
            {"id": "broad_miss", "components": {"branch": "ud"}},
            {"id": "narrow_hit", "components": {"branch": "du"}},
            {"id": "narrow_miss", "components": {"branch": "dd"}},
        ],
        "initial_state": "root",
        "null_action": "noop",
        "nodes": [
            {"time": 0, "state": "root", "actions": {
                "noop": {"kernel": {"broad": 0.5, "narrow": 0.5}},
            }},
            {"time": 1, "state": "broad", "actions": {
                "noop": {"kernel": {"broad_hit": 0.5, "broad_miss": 0.5}},
            }},
            {"time": 1, "state": "narrow", "actions": {
                "noop": {"kernel": {"narrow_hit": 0.05, "narrow_miss": 0.95}},
            }},
        ],
        "terminal_losses": {
            "broad_hit": 10.0, "broad_miss": 0.0, "narrow_hit": 10.0, "narrow_miss": 0.0,
        },
    }
    model = build_model(spec)
    cont = Policy.from_entries(
        {
            (0, "root"): {"noop": 1.0},
            (1, "broad"): {"noop": 1.0},
            (1, "narrow"): {"noop": 1.0},
        },
        model,
    )
    return model, cont


# ---------------------------------------------------------------------------
# negative-control predictor


def scaled_predictor(base: Predictor, factor: float) -> Predictor:
    """Deliberately biased variant of a predictor, for negative controls."""

    def predict(time: int, state: str, action: str) -> float:
        return factor * base(time, state, action)

    return predict


# ---------------------------------------------------------------------------
# irreversibility-witness instances


class WitnessCase(NamedTuple):
    """Everything verify_witness and the authority checks need, bundled."""

    ambiguity: AmbiguitySet
    time: int
    state: str
    action: str
    base_actions: tuple[str, ...]
    cont: Policy
    sdm: SafeDefaultMap
    witness: WitnessSpec


def _payments_document() -> dict:
    """The bundled payments document, decoded afresh for a witness to edit."""
    return json.loads(bundled_scenario_path("payments").read_text(encoding="utf-8"))


def _batched(kernel: dict) -> dict:
    # the batcher meets fraud exactly when a wire would
    return {"batch_fraud": kernel["wired_fraud"], "batch_clear": kernel["wired_clear"]}


def _add_legacy_batch(doc: dict) -> None:
    """Grant a legacy batcher at the start: it sends the funds out with the
    wire's fraud rate in every model, and a fraudulent batch loses 30."""
    model = doc["model"]
    model["states"] += [
        {"id": "batch_fraud", "components": {"phase": "batched", "funds_out": 1, "fraud": 1}},
        {"id": "batch_clear", "components": {"phase": "batched", "funds_out": 1, "fraud": 0}},
        {"id": "batch_lost", "components": {"phase": "done", "funds_out": 1, "fraud": 1}},
        {"id": "batch_done", "components": {"phase": "done", "funds_out": 1, "fraud": 0}},
    ]
    start = model["nodes"][0]["actions"]
    start["legacy_batch"] = {"kernel": _batched(start["wire_transfer"]["kernel"])}
    model["nodes"] += [
        {"time": 1, "state": "batch_fraud", "actions": {"noop": {"kernel": {"batch_lost": 1.0}}}},
        {"time": 1, "state": "batch_clear", "actions": {"noop": {"kernel": {"batch_done": 1.0}}}},
    ]
    model["terminal_losses"].update(batch_lost=30.0, batch_done=0.0)
    doc["safe_defaults"].append(
        {"time": 0, "state": "start", "action": "legacy_batch", "default": "draft_payment"}
    )
    doc["policy"] += [
        {"time": 1, "state": s, "probs": {"noop": 1.0}} for s in ("batch_fraud", "batch_clear")
    ]
    for variant in doc["ambiguity"]:
        overrides = variant["kernel_overrides"]
        overrides += [
            {**ov, "action": "legacy_batch", "kernel": _batched(ov["kernel"])}
            for ov in overrides if ov["action"] == "wire_transfer"
        ]


def _payment_continuation(model: EnvironmentModel) -> Policy:
    choices = {}
    for t, s in model.all_nodes():
        choices[(t, s)] = "release" if s in ("wired_fraud", "wired_clear") else "noop"
    return Policy.deterministic(choices)


PAYMENT_FRAUD_EVENT = frozenset(
    {"funds_lost", "recall_shortfall", "review_flagged", "fraud_averted"}
)


def payment_release_witness(
    recall_recovers: bool = False,
    include_legacy: bool = False,
) -> WitnessCase:
    """Wire-transfer-versus-draft instance on the payments document's own
    ambiguity set and safe defaults.

    The document's ``fraud_stress`` variant raises the fraud rate and serves
    as the witness model. With ``recall_recovers`` the recall action claws
    the whole loss back, so hedging resistance fails while the tail gap
    still holds. With ``include_legacy`` the base authority set already
    contains a batcher whose worst-case risk dwarfs the wire, so granting
    the wire leaves the set-level capital unchanged.
    """
    doc = _payments_document()
    if recall_recovers:
        doc["model"]["terminal_losses"]["recall_shortfall"] = 1.0
    if include_legacy:
        _add_legacy_batch(doc)
    sc = resolve_scenario(doc)
    base_actions = ("draft_payment", "noop") + (("legacy_batch",) if include_legacy else ())
    return WitnessCase(
        ambiguity=sc.ambiguity,
        time=0,
        state="start",
        action="wire_transfer",
        base_actions=base_actions,
        cont=_payment_continuation(sc.model),
        sdm=sc.safe_defaults,
        witness=WitnessSpec(
            model_index=1,
            event=PAYMENT_FRAUD_EVENT,
            min_gap=9.0,
            hedge_allowance=0.5,
        ),
    )


def shipment_tail_witness() -> WitnessCase:
    """Single-step instance whose loss gap hides below the shortfall tail.

    A carrier mishap dominates the tail regardless of the action, so an
    expected-shortfall mapping at level 0.8 never sees the address-typo gap
    the rush creates: condition three fails for the shortfall and holds for
    any entropic mapping.
    """
    spec = {
        "horizon": 1,
        "components": [
            {"name": "shipped", "external": True},
            {"name": "mishap", "external": True},
        ],
        "states": [
            {"id": "start", "components": {"shipped": 0, "mishap": "none"}},
            {"id": "carrier_smash", "components": {"shipped": 1, "mishap": "carrier"}},
            {"id": "typo_rush", "components": {"shipped": 1, "mishap": "typo"}},
            {"id": "typo_hold", "components": {"shipped": 0, "mishap": "typo"}},
            {"id": "ok_rush", "components": {"shipped": 1, "mishap": "none"}},
            {"id": "ok_hold", "components": {"shipped": 0, "mishap": "none"}},
        ],
        "initial_state": "start",
        "null_action": "noop",
        "nodes": [
            {"time": 0, "state": "start", "actions": {
                "rush_ship": {"kernel": {"carrier_smash": 0.3, "typo_rush": 0.2, "ok_rush": 0.5}},
                "hold_order": {"kernel": {"carrier_smash": 0.3, "typo_hold": 0.2, "ok_hold": 0.5}},
                "noop": {"kernel": {"carrier_smash": 0.3, "typo_hold": 0.2, "ok_hold": 0.5}},
            }},
        ],
        "terminal_losses": {
            "carrier_smash": 6.0, "typo_rush": 3.0, "typo_hold": 1.0,
            "ok_rush": 0.0, "ok_hold": 0.0,
        },
    }
    model = build_model(spec)
    amb = AmbiguitySet(models=(model,))
    cont = Policy.deterministic({(0, "start"): "noop"})
    sdm = SafeDefaultMap.from_entries({(0, "start", "rush_ship"): "hold_order"}, model)
    return WitnessCase(
        ambiguity=amb,
        time=0,
        state="start",
        action="rush_ship",
        base_actions=("hold_order", "noop"),
        cont=cont,
        sdm=sdm,
        witness=WitnessSpec(
            model_index=0,
            event=frozenset({"typo_rush", "typo_hold"}),
            min_gap=2.0,
            hedge_allowance=0.0,
        ),
    )


def random_payment_witness(rng: random.Random, shipped: WitnessCase) -> WitnessCase:
    """Randomised payment-shaped instance for structural fuzzing: the base
    model of ``shipped``, the payments document's, at drawn fraud rates and
    losses.

    Parameters are drawn so the family mixes certificates that hold with
    ones broken in each condition: recall effectiveness controls hedging
    resistance, a mispriced clean path breaks the everywhere-gap, and the
    declared gap is sometimes overstated.
    """
    n_models = rng.randint(1, 3)
    fraud = sorted(rng.uniform(0.05, 0.45) for _ in range(n_models))
    loss_lost = rng.uniform(4.0, 12.0)
    loss_review = rng.uniform(0.3, 2.0)
    recall_cut = rng.uniform(0.0, loss_lost - loss_review)
    loss_recall = loss_lost - recall_cut
    # occasionally price the clean wire outcome above the clean draft
    # outcome, violating the everywhere-nonnegative gap
    clean_gap_break = rng.random() < 0.25
    loss_recalled_clean = rng.uniform(0.0, 1.0)

    base = shipped.ambiguity.models[0]
    # each start action's first target is its fraud state, its second the clear one
    starts = {a: [s for s, _ in base.kernel(0, "start", a)] for a in base.actions(0, "start")}
    models = []
    for f in fraud:
        rows = {(0, "start", a): {hit: f, miss: 1 - f} for a, (hit, miss) in starts.items()}
        losses = {"funds_lost": loss_lost, "recall_shortfall": loss_recall,
                  "review_flagged": loss_review, "wire_recalled": loss_recalled_clean}
        if clean_gap_break:
            losses["invoice_pending"] = rng.uniform(0.5, 2.0)
        models.append(base.replaced(rows, losses))
    amb = AmbiguitySet(models=tuple(models))

    true_gap = loss_lost - loss_review
    overstated = rng.random() < 0.2
    min_gap = true_gap + (rng.uniform(0.1, 1.0) if overstated else 0.0)
    max_reduction = min_gap - (loss_recall - loss_review)
    if rng.random() < 0.5:
        allowance = max_reduction + rng.uniform(0.0, 0.5)
    else:
        allowance = max(0.0, max_reduction - rng.uniform(0.05, 0.5))
    allowance = min(allowance, min_gap * 0.99)
    return WitnessCase(
        ambiguity=amb,
        time=0,
        state="start",
        action="wire_transfer",
        base_actions=("draft_payment", "noop"),
        cont=shipped.cont,
        sdm=shipped.sdm,
        witness=WitnessSpec(
            model_index=rng.randrange(n_models),
            event=PAYMENT_FRAUD_EVENT,
            min_gap=min_gap,
            hedge_allowance=max(0.0, allowance),
        ),
    )
