"""One-step conditional risk mappings and their backward-recursive composition.

Three one-step mappings are supported:

* ``expectation``                 sigma(Y) = E[Y]
* ``entropic`` with gamma > 0     sigma(Y) = log(E[exp(gamma * Y)]) / gamma
* ``conditional_es`` with alpha   sigma(Y) = mean of the worst (1 - alpha)
                                  probability mass of Y (expected shortfall)

A multi-period valuation composes the chosen mapping backwards through the
environment tree: terminal nodes are valued at their loss, and each decision
node is valued by applying the mapping to the law of its children's values.
Composition makes every mapping dynamically consistent by construction; the
naive alternative of reading a time-0 expected shortfall straight off the
terminal law is *not* consistent, and :func:`cvar_inconsistency_demo` returns
a concrete two-stage instance where the two readings order a pair of losses
in opposite directions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Mapping, Sequence

from .envmodel import (
    KERNEL_TOL,
    EnvironmentModel,
    Intervention,
    Policy,
    _check_intervention,
    build_model,
)
from .exceptions import ModelValidationError

RISK_KINDS = ("expectation", "entropic", "conditional_es")


@dataclass(frozen=True)
class RiskSpec:
    """Descriptor of a one-step conditional risk mapping."""

    kind: str
    gamma: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in RISK_KINDS:
            raise ModelValidationError(f"unknown risk kind {self.kind!r}", path="risk.kind")
        if self.kind == "entropic":
            if self.gamma is None or not 0 < self.gamma < math.inf:
                raise ModelValidationError(
                    "entropic risk needs a finite gamma > 0", path="risk.gamma"
                )
            if self.alpha is not None:
                raise ModelValidationError("alpha is not an entropic parameter", path="risk.alpha")
        elif self.kind == "conditional_es":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ModelValidationError(
                    "conditional_es needs alpha in (0, 1)", path="risk.alpha"
                )
            if self.gamma is not None:
                raise ModelValidationError("gamma is not an ES parameter", path="risk.gamma")
        else:
            if self.gamma is not None or self.alpha is not None:
                raise ModelValidationError(
                    "expectation takes no parameters", path="risk"
                )

    def describe(self) -> str:
        if self.kind == "entropic":
            return f"entropic(gamma={self.gamma})"
        if self.kind == "conditional_es":
            return f"conditional_es(alpha={self.alpha})"
        return "expectation"


@dataclass(frozen=True)
class RiskValuation:
    """Node-by-node valuation of a terminal loss under the recursion.

    ``values`` maps (time, state) to the value at that node; terminal entries
    equal the terminal loss. ``root`` is the value at the evaluation root.
    """

    values: dict[tuple[int, str], float]
    root: float


def one_step_risk(spec: RiskSpec, dist: Mapping[float, float] | Sequence[tuple[float, float]]) -> float:
    """Apply the one-step mapping to a finite distribution.

    ``dist`` is either a mapping value -> probability or a sequence of
    (value, probability) pairs. Probabilities must be nonnegative and sum to
    one (within ``KERNEL_TOL``); atoms of zero probability take no part,
    whatever their value. The entropic case always
    evaluates through a log-sum-exp shifted by the largest value of positive
    probability, so large gamma * value products cannot overflow.
    """
    pairs = list(dist.items()) if isinstance(dist, Mapping) else list(dist)
    values = [float(v) for v, _ in pairs]
    probs = [float(p) for _, p in pairs]
    if not all(p >= 0.0 for p in probs) or abs(math.fsum(probs) - 1.0) > KERNEL_TOL:
        raise ModelValidationError(
            "probabilities must be nonnegative and sum to 1", path="dist"
        )
    return _sigma(spec, values, probs)


def _sigma(spec: RiskSpec, values: Sequence[float], probs: Sequence[float]) -> float:
    if spec.kind == "expectation":
        return float(sum(p * v for v, p in zip(values, probs) if p > 0.0))
    if spec.kind == "entropic":
        return _entropic(values, probs, spec.gamma)
    return _expected_shortfall(values, probs, spec.alpha)


def _entropic(values: Sequence[float], probs: Sequence[float], gamma: float) -> float:
    shift = max(v for v, p in zip(values, probs) if p > 0.0)
    acc = 0.0
    for v, p in zip(values, probs):
        if p > 0.0:
            acc += p * math.exp(gamma * (v - shift))
    return shift + math.log(acc) / gamma


def _expected_shortfall(values: Sequence[float], probs: Sequence[float], alpha: float) -> float:
    tail = 1.0 - alpha
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=True)
    acc = 0.0
    total = 0.0
    for i in order:
        if probs[i] <= 0.0:
            continue
        take = min(probs[i], tail - acc)
        if take <= 0.0:
            break
        total += values[i] * take
        acc += take
    return total / tail


class PolicyValues:
    """Lazily memoised node values of the frozen policy ``cont``.

    ``at(t, s)`` is the policy recursion's value at a node. ``forced(t, s,
    a)`` applies the one-step mapping to the ``p > 0`` rows of
    ``kernel(t, s, a)`` over ``at(t + 1, .)``. A forced action and its safe
    default share one set of continuation values, so one object prices any
    number of keys, each node being valued at most once:
    ``toll = forced(t, s, a) - forced(t, s, default)``. ``memo`` holds the
    valued nodes in the order they were first valued (children before
    parents).
    """

    def __init__(self, model: EnvironmentModel, cont: Policy, spec: RiskSpec) -> None:
        self.model = model
        self.cont = cont
        self.spec = spec
        self.memo: dict[tuple[int, str], float] = {}

    def at(self, t: int, s: str) -> float:
        key = (t, s)
        v = self.memo.get(key)
        if v is None:
            if t == self.model.horizon:
                v = float(self.model.terminal_loss(s))
            else:
                v = self._sigma_next(t, self.model.effective_next(t, s, self.cont))
            self.memo[key] = v
        return v

    def forced(self, t: int, s: str, a: str) -> float:
        return self._sigma_next(t, self.model.kernel(t, s, a))

    def _sigma_next(self, t: int, dist: Sequence[tuple[str, float]]) -> float:
        children = [(self.at(t + 1, nxt), p) for nxt, p in dist if p > 0.0]
        return float(_sigma(self.spec, [c for c, _ in children], [p for _, p in children]))


def evaluate_dynamic_risk(
    model: EnvironmentModel,
    iv: Intervention,
    cont: Policy,
    spec: RiskSpec,
    values: PolicyValues | None = None,
) -> RiskValuation:
    """Backward recursion from the intervention node.

    The intervention action is forced at its node; afterwards the law of the
    next node is the policy mixture of kernels. To value other losses or
    kernels, pass a variant built by :meth:`EnvironmentModel.replaced`.

    ``values`` shares continuation values across calls. It must be built
    for this model and policy (same objects) and an equal spec; otherwise
    :class:`ModelValidationError`.
    Without it the result's ``values`` is the root and every node below it;
    with it, the root plus the nodes this call valued first, so their count
    is the work the call did.
    """
    _check_intervention(model, iv)
    if values is None:
        values = PolicyValues(model, cont, spec)
    elif values.model is not model or values.cont is not cont or values.spec != spec:
        raise ModelValidationError(
            "shared values were built for another model, policy or spec",
            path="values",
        )
    before = len(values.memo)
    root = values.forced(iv.time, iv.state, iv.action)
    valued = dict(islice(values.memo.items(), before, None))
    valued[(iv.time, iv.state)] = root
    return RiskValuation(values=valued, root=root)


def evaluate_policy_risk(model: EnvironmentModel, cont: Policy, spec: RiskSpec) -> RiskValuation:
    """Backward recursion with no forced action from the model's initial
    node."""
    values = PolicyValues(model, cont, spec)
    root = values.at(0, model.initial_state)
    return RiskValuation(values=values.memo, root=root)


# ---------------------------------------------------------------------------
# axiom fuzzing


@dataclass(frozen=True)
class AxiomResult:
    passed: bool
    counterexample: dict | None = None


@dataclass(frozen=True)
class AxiomReport:
    results: dict[str, AxiomResult] = field(default_factory=dict)

    def passed(self, name: str) -> bool:
        return self.results[name].passed

    def all_core_passed(self) -> bool:
        core = ("normalisation", "monotonicity", "locality", "translation_invariance", "convexity")
        return all(self.results[n].passed for n in core)


_AXIOM_TOL = 1e-9


def check_axioms(spec: RiskSpec, trials: int, seed: int) -> AxiomReport:
    """Randomised property fuzzing of the one-step mapping on finite
    distributions.

    Checks normalisation, monotonicity, locality, translation invariance and
    convexity, plus a positive-homogeneity probe. Each failed axiom records
    the first witnessing counterexample; fuzzing continues so a single report
    covers all six properties.
    """
    if trials < 1:
        raise ModelValidationError("trials must be >= 1", path="trials")
    rng = random.Random(seed)
    names = (
        "normalisation",
        "monotonicity",
        "locality",
        "translation_invariance",
        "convexity",
        "positive_homogeneity",
    )
    failures: dict[str, dict | None] = {n: None for n in names}

    for _ in range(trials):
        n = rng.randint(1, 6)
        raw = [rng.random() + 1e-3 for _ in range(n)]
        total = sum(raw)
        probs = [r / total for r in raw]
        x = [rng.uniform(-5.0, 5.0) for _ in range(n)]
        y = [xi + rng.uniform(0.0, 4.0) for xi in x]
        lam = rng.uniform(0.0, 1.0)
        shift = rng.uniform(-3.0, 3.0)
        scale = rng.choice((0.5, 2.0, 3.0))

        zero = _sigma(spec, [0.0] * n, probs)
        if failures["normalisation"] is None and abs(zero) > _AXIOM_TOL:
            failures["normalisation"] = {"probs": probs, "sigma_zero": zero}

        sx, sy = _sigma(spec, x, probs), _sigma(spec, y, probs)
        if failures["monotonicity"] is None and sx > sy + _AXIOM_TOL:
            failures["monotonicity"] = {"probs": probs, "x": x, "y": y, "sx": sx, "sy": sy}

        # Locality: an atom of zero probability is an unrealised branch, so
        # whatever loss it carries must leave the value unchanged.
        pos = rng.randint(0, n)
        ghost = rng.uniform(-10.0, 10.0)
        local = _sigma(spec, x[:pos] + [ghost] + x[pos:], probs[:pos] + [0.0] + probs[pos:])
        if failures["locality"] is None and abs(local - sx) > _AXIOM_TOL:
            failures["locality"] = {
                "probs": probs, "x": x, "position": pos, "ghost": ghost, "lhs": local, "rhs": sx,
            }

        st = _sigma(spec, [v + shift for v in x], probs)
        if failures["translation_invariance"] is None and abs(st - (sx + shift)) > _AXIOM_TOL:
            failures["translation_invariance"] = {
                "probs": probs, "x": x, "shift": shift, "lhs": st, "rhs": sx + shift,
            }

        mix = [lam * a + (1 - lam) * b for a, b in zip(x, y)]
        smix = _sigma(spec, mix, probs)
        bound = lam * sx + (1 - lam) * sy
        if failures["convexity"] is None and smix > bound + _AXIOM_TOL:
            failures["convexity"] = {
                "probs": probs, "x": x, "y": y, "lam": lam, "lhs": smix, "rhs": bound,
            }

        sscale = _sigma(spec, [scale * v for v in x], probs)
        if failures["positive_homogeneity"] is None and abs(sscale - scale * sx) > _AXIOM_TOL:
            failures["positive_homogeneity"] = {
                "probs": probs, "x": x, "scale": scale, "lhs": sscale, "rhs": scale * sx,
            }

    results = {
        n: AxiomResult(passed=failures[n] is None, counterexample=failures[n]) for n in names
    }
    return AxiomReport(results=results)


# ---------------------------------------------------------------------------
# the two-stage expected-shortfall inconsistency instance


@dataclass(frozen=True)
class CvarDemoRecord:
    """Frozen two-stage instance where stagewise conditional expected
    shortfall and the naive time-0 static reading disagree about which of two
    losses is riskier.

    ``loss_a`` has its tail spread thinly across both stage-1 nodes, so each
    node's conditional shortfall dilutes it; ``loss_b`` concentrates enough
    conditional mass to dominate nodewise. Pooled at time 0, the ordering
    flips. Recursive composition of the same mapping, and plain expectation,
    both stay consistent on the identical instance.
    """

    alpha: float
    model: EnvironmentModel
    continuation: Policy
    loss_a: dict[str, float]
    loss_b: dict[str, float]
    stage_values_a: dict[str, float]
    stage_values_b: dict[str, float]
    static_a: float
    static_b: float
    static_gap: float
    recursive_a: float
    recursive_b: float
    expectation_static_a: float
    expectation_static_b: float
    expectation_recursive_a: float
    expectation_recursive_b: float

    @property
    def stagewise_dominated(self) -> bool:
        return all(
            self.stage_values_a[s] <= self.stage_values_b[s] + _AXIOM_TOL
            for s in self.stage_values_a
        )

    @property
    def recursive_consistent(self) -> bool:
        return self.recursive_a <= self.recursive_b + _AXIOM_TOL


def _cvar_demo_model() -> tuple[EnvironmentModel, Policy]:
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


def cvar_inconsistency_demo() -> CvarDemoRecord:
    """Return the built-in two-stage counterexample at level 0.7, the level
    the instance was derived for. The record carries every number on both
    sides so callers can re-verify directly.
    """
    alpha = 0.7
    model, cont = _cvar_demo_model()
    loss_a = {"broad_hit": 10.0, "broad_miss": 0.0, "narrow_hit": 10.0, "narrow_miss": 0.0}
    loss_b = {"broad_hit": 10.0, "broad_miss": 0.0, "narrow_hit": 1.7, "narrow_miss": 1.7}

    es = RiskSpec(kind="conditional_es", alpha=alpha)
    mean = RiskSpec(kind="expectation")

    def stage_values(loss: Mapping[str, float]) -> dict[str, float]:
        vals = {}
        for node in ("broad", "narrow"):
            law = [(loss[nxt], p) for nxt, p in model.kernel(1, node, "noop")]
            vals[node] = one_step_risk(es, law)
        return vals

    def static_value(spec_: RiskSpec, loss: Mapping[str, float]) -> float:
        law: dict[float, float] = {}
        for mid, p in model.kernel(0, "root", "noop"):
            for leaf, q in model.kernel(1, mid, "noop"):
                law[loss[leaf]] = law.get(loss[leaf], 0.0) + p * q
        return one_step_risk(spec_, law)

    model_a, model_b = model.replaced(losses=loss_a), model.replaced(losses=loss_b)
    sv_a, sv_b = stage_values(loss_a), stage_values(loss_b)
    rec_a = evaluate_policy_risk(model_a, cont, es).root
    rec_b = evaluate_policy_risk(model_b, cont, es).root
    st_a, st_b = static_value(es, loss_a), static_value(es, loss_b)

    return CvarDemoRecord(
        alpha=alpha,
        model=model,
        continuation=cont,
        loss_a=dict(loss_a),
        loss_b=dict(loss_b),
        stage_values_a=sv_a,
        stage_values_b=sv_b,
        static_a=st_a,
        static_b=st_b,
        static_gap=st_a - st_b,
        recursive_a=rec_a,
        recursive_b=rec_b,
        expectation_static_a=static_value(mean, loss_a),
        expectation_static_b=static_value(mean, loss_b),
        expectation_recursive_a=evaluate_policy_risk(model_a, cont, mean).root,
        expectation_recursive_b=evaluate_policy_risk(model_b, cont, mean).root,
    )
