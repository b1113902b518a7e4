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
terminal law is *not* consistent: the ``cvar-demo`` suite of
:mod:`tollgate.verify` checks a two-stage instance where the two readings
order a pair of losses in opposite directions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice
from typing import Mapping, NamedTuple, Sequence

from .envmodel import (
    KERNEL_TOL,
    EnvironmentModel,
    Intervention,
    Policy,
    _check_intervention,
)
from .exceptions import Checked, ModelValidationError, fold

RISK_KINDS = ("expectation", "entropic", "conditional_es")


class RiskSpec(Checked, namedtuple("RiskSpec", "kind gamma alpha", defaults=(None, None))):
    """Descriptor of a one-step conditional risk mapping."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RiskSpec:
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    def describe(self) -> str:
        if self.kind == "entropic":
            return f"entropic(gamma={self.gamma})"
        if self.kind == "conditional_es":
            return f"conditional_es(alpha={self.alpha})"
        return "expectation"


class RiskValuation(NamedTuple):
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
    one (within ``KERNEL_TOL``), and no value may be NaN; otherwise atoms of
    zero probability take no part, whatever their value. A ``+inf`` value of
    positive probability gives ``+inf`` under every mapping. The entropic
    case always evaluates through a log-sum-exp shifted by the largest value
    of positive probability, so large gamma * value products cannot
    overflow.
    """
    pairs = list(dist.items()) if isinstance(dist, Mapping) else list(dist)
    values = [float(v) for v, _ in pairs]
    probs = [float(p) for _, p in pairs]
    if not all(p >= 0.0 for p in probs) or abs(math.fsum(probs) - 1.0) > KERNEL_TOL:
        raise ModelValidationError(
            "probabilities must be nonnegative and sum to 1", path="dist"
        )
    if any(math.isnan(v) for v in values):
        raise ModelValidationError("values must not be NaN", path="dist")
    if any(v == math.inf and p > 0.0 for v, p in zip(values, probs)):
        return math.inf
    return _sigma(spec, values, probs)


def _sigma(spec: RiskSpec, values: Sequence[float], probs: Sequence[float]) -> float:
    if spec.kind == "expectation":
        return float(fold(p * v for v, p in zip(values, probs) if p > 0.0))
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
        """The node's value. An unvalued node is valued depth first, children
        in row order, on an explicit stack of ``(time, state, live rows,
        child values)`` frames, so the Python stack does not grow with the
        horizon."""
        memo = self.memo
        v = memo.get((t, s))
        if v is not None:
            return v
        horizon = self.model.horizon
        if t == horizon:
            v = memo[(t, s)] = float(self.model.terminal_loss(s))
            return v
        stack = [(t, s, self._live_next(t, s), [])]
        while stack:
            t, s, rows, values = stack[-1]
            for nxt, _ in rows[len(values):]:
                v = memo.get((t + 1, nxt))
                if v is None:
                    if t + 1 < horizon:
                        stack.append((t + 1, nxt, self._live_next(t + 1, nxt), []))
                        break
                    v = memo[(t + 1, nxt)] = float(self.model.terminal_loss(nxt))
                values.append(v)
            else:
                v = memo[(t, s)] = float(_sigma(self.spec, values, [p for _, p in rows]))
                stack.pop()
                if stack:
                    stack[-1][3].append(v)
        return v

    def _live_next(self, t: int, s: str) -> list[tuple[str, float]]:
        return [(nxt, p) for nxt, p in self.model.effective_next(t, s, self.cont) if p > 0.0]

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
    # the nodes this call valued are the memo's last: walk back over them alone
    added = islice(reversed(values.memo.items()), len(values.memo) - before)
    valued = dict(reversed(list(added)))
    valued[(iv.time, iv.state)] = root
    return RiskValuation(values=valued, root=root)


def evaluate_policy_risk(model: EnvironmentModel, cont: Policy, spec: RiskSpec) -> RiskValuation:
    """Backward recursion with no forced action from the model's initial
    node."""
    values = PolicyValues(model, cont, spec)
    root = values.at(0, model.initial_state)
    return RiskValuation(values=values.memo, root=root)
