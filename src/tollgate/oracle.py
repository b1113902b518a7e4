"""Independent brute-force evaluators backing every derived value and
structural property test.

These deliberately do NOT share code paths with the engine modules they
cross-check. The terminal-law enumerator walks concrete paths one at a time
(action branches included) instead of merging distributions node by node; the
static risk evaluator takes the entropic risk as a log-sum-exp over the scaled
losses, summed with ``math.fsum``, and expected shortfall in its minimisation
form, instead of the engine's loss-unit shifts and sorted tail averages.
Agreement between the two routes is itself a tested property. The
gated-path enumerator is handed the gate rule it walks, and walks every
branch where the engine samples one.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from .envmodel import EnvironmentModel, Intervention, Policy
from .exceptions import Checked, EnumerationBudgetError, ModelValidationError

if TYPE_CHECKING:
    from .boundary import BoundaryLedger
    from .risk import RiskSpec


class EnumerationBudget(
    Checked,
    namedtuple("EnumerationBudget", "max_paths max_policies", defaults=(1_000_000, 1_000_000))
):
    """Hard caps for brute-force enumeration; exceeding any cap is an error."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> EnumerationBudget:
        self = super().__new__(cls, *args, **kwargs)
        for field in self._fields:
            if getattr(self, field) < 1:
                raise ModelValidationError("an enumeration cap must be >= 1", path=f"budget.{field}")
        return self


def enumerate_terminal_law(
    model: EnvironmentModel,
    iv: Intervention,
    cont: Policy,
    budget: EnumerationBudget | None = None,
) -> dict[float, float]:
    """Exact terminal-loss law by exhaustive path walk.

    Every (action choice, transition) pair opens its own path, so the path
    count is the raw tree size rather than the merged node count. Losses are
    aggregated only once all paths have been collected.
    """
    budget = budget or EnumerationBudget()
    paths: list[tuple[float, float]] = []
    # stack entries: (time, state, probability_so_far)
    stack: list[tuple[int, str, float]] = [(iv.time, iv.state, 1.0)]
    first = True
    while stack:
        t, s, prob = stack.pop()
        if t == model.horizon:
            paths.append((float(model.terminal_loss(s)), prob))
            if len(paths) > budget.max_paths:
                raise EnumerationBudgetError(
                    f"path enumeration exceeded cap {budget.max_paths}"
                )
            continue
        if first and (t, s) == (iv.time, iv.state):
            choices = [(iv.action, 1.0)]
            first = False
        else:
            choices = list(cont.action_dist(t, s))
        for action, ap in choices:
            if ap <= 0.0:
                continue
            for nxt, tp in model.kernel(t, s, action):
                if tp <= 0.0:
                    continue
                stack.append((t + 1, nxt, prob * ap * tp))
    law: dict[float, float] = {}
    for loss, p in sorted(paths):
        law[loss] = law.get(loss, 0.0) + p
    return law


def enumerate_gated_paths(
    model: EnvironmentModel,
    policy: Policy,
    step: Callable[..., tuple],
    cfg: Any,
    ledger: BoundaryLedger,
    budget: EnumerationBudget | None = None,
) -> list[tuple[float, tuple, str, tuple[dict, ...]]]:
    """Exact law of gated episodes by exhaustive path walk.

    ``step`` is the gate rule, injected so that this module imports no
    engine module: each proposal of positive probability is decided by
    ``step(remaining, cfg, model, ledger, time, state, proposed, {})``, with
    a fresh memo, which returns the entry, the charge and the next ledger.
    Every transition of positive probability under the entry's executed
    action opens its own path. A path starts at the model's initial state,
    ``cfg.initial_budget`` and ``ledger``, and each step's remaining budget
    is its predecessor entry's ``budget_after``.

    Returns ``(probability, entries, leaf, boundary records)`` per path, in
    policy-row then kernel-row order; more than ``budget.max_paths`` paths
    raise :class:`EnumerationBudgetError`.
    """
    budget = budget or EnumerationBudget()
    paths: list[tuple[float, tuple, str, tuple[dict, ...]]] = []
    # stack entries: (probability_so_far, entries, state, remaining, ledger)
    stack = [(1.0, (), model.initial_state, cfg.initial_budget, ledger)]
    while stack:
        prob, entries, s, remaining, led = stack.pop()
        t = len(entries)
        if t == model.horizon:
            paths.append((prob, entries, s, led.records))
            if len(paths) > budget.max_paths:
                raise EnumerationBudgetError(
                    f"path enumeration exceeded cap {budget.max_paths}"
                )
            continue
        branches = []
        for proposed, ap in policy.action_dist(t, s):
            if ap <= 0.0:
                continue
            entry, _, after = step(remaining, cfg, model, led, t, s, proposed, {})
            for nxt, tp in model.kernel(t, s, entry.executed):
                if tp > 0.0:
                    branches.append(
                        (prob * ap * tp, (*entries, entry), nxt, entry.budget_after, after)
                    )
        stack.extend(reversed(branches))
    return paths


def static_risk(dist: Mapping[float, float], spec: RiskSpec) -> float:
    """Direct one-shot evaluation of the risk functional on a terminal law."""
    values = list(dist.keys())
    probs = [dist[v] for v in values]
    if spec.kind == "expectation":
        return float(sum(v * p for v, p in zip(values, probs)))
    if spec.kind == "entropic":
        # Shifted by the largest scaled loss of positive mass, so every
        # exponent is <= 0 and none overflows however large gamma * loss is;
        # atoms of zero mass contribute nothing and are left out.
        scaled = [(spec.gamma * v, p) for v, p in zip(values, probs) if p > 0.0]
        m = max(x for x, _ in scaled)
        return (m + math.log(math.fsum(p * math.exp(x - m) for x, p in scaled))) / spec.gamma
    return _shortfall_by_minimisation(values, probs, spec.alpha)


def _shortfall_by_minimisation(values: list[float], probs: list[float], alpha: float) -> float:
    # ES_alpha(X) = min_z  z + E[(X - z)^+] / (1 - alpha); the minimum is
    # attained at an atom of a discrete law, so scanning the support is exact.
    tail = 1.0 - alpha
    best = math.inf
    for z in values:
        excess = sum(p * (v - z) for v, p in zip(values, probs) if v > z)
        best = min(best, z + excess / tail)
    return float(best)


def enumerate_policies(
    model: EnvironmentModel,
    from_time: int,
    from_state: str,
    budget: EnumerationBudget | None = None,
    first_action: str | None = None,
) -> Iterator[Policy]:
    """All deterministic Markov continuation policies on the subtree hanging
    off (from_time, from_state).

    Decision nodes are the (time, state) pairs reachable under some action
    sequence, the root included; the yield is the full product of their
    action sets, duplicate-free by construction. ``first_action`` pins the
    root step to one action instead, pruning both the root's choice and the
    reachable set, which is the shape continuation hedging needs.
    """
    budget = budget or EnumerationBudget()
    nodes = _reachable_decision_nodes(model, from_time, from_state, first_action)
    count = 1
    action_sets = []
    for t, s in nodes:
        acts = model.actions(t, s)
        count *= len(acts)
        if count > budget.max_policies:
            raise EnumerationBudgetError(
                f"policy enumeration exceeded cap {budget.max_policies}"
            )
        action_sets.append(acts)
    for combo in itertools.product(*action_sets):
        yield Policy.deterministic(dict(zip(nodes, combo)))


def _reachable_decision_nodes(
    model: EnvironmentModel,
    from_time: int,
    from_state: str,
    first_action: str | None,
) -> list[tuple[int, str]]:
    frontier = {from_state}
    nodes: list[tuple[int, str]] = []
    for t in range(from_time, model.horizon):
        nxt: set[str] = set()
        for s in sorted(frontier, key=model.state_index):
            root_pinned = t == from_time and first_action is not None
            if not root_pinned:
                nodes.append((t, s))
            actions = (first_action,) if root_pinned else model.actions(t, s)
            for a in actions:
                for target, p in model.kernel(t, s, a):
                    if p > 0.0:
                        nxt.add(target)
        frontier = nxt
    return nodes
