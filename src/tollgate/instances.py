"""Instances the property suites of :mod:`tollgate.verify` run on.

Random layered trees, policies, loss pairs, kernel jitters, potentials and
partitions; the randomised fuzzer of the one-step axioms; the two-stage
shortfall instance of result (i); a predictor biased for a negative control.
Nothing here runs in ``run``, ``report`` or ``calibrate``.
"""

from __future__ import annotations

import random
from typing import Sequence

# The fuzzer reaches risk._sigma through its module at call time, so a fault
# patched into it reaches the fuzzer too.
from . import risk
from .boundary import PotentialSpec
from .envelope import Predictor
from .envmodel import EnvironmentModel, Policy, build_model
from .risk import RiskSpec

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
    total = sum(weights)
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
        total = sum(raw)
        probs = [r / total for r in raw]
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
