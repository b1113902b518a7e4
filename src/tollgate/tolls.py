"""Counterfactual action tolls, robust authority pricing, and the
irreversibility-witness verifier.

The toll of an action is the difference between two root risk valuations at
the same node: the loss law with the action forced, minus the loss law with
its contractually fixed safe default forced, both under the same frozen
continuation policy. Only the positive part is ever charged; risk-reducing
actions are not subsidised.

Robust quantities run the same valuations across a finite ambiguity set of
environment models sharing one tree skeleton: the authority premium is the
worst-case clamped toll of a newly granted action, and the robust capital of
an action set is the worst case over both models and actions.

Witness verification checks the three structural conditions that make an
added action genuinely, irreversibly worse than its safe default under some
model in the set: a pathwise tail-loss gap, hedging resistance over every
continuation handed in, and strict sensitivity of the risk mapping to a
loss bump on the designated event. Pathwise comparison across the two forced
actions uses a comonotone coupling: both branches consume one shared uniform
draw per step, mapped through each branch's next-state CDF in the model's
declared state order, so exogenous randomness moves both branches together.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, NamedTuple, Sequence

from .envmodel import EnvironmentModel, Intervention, Policy, SafeDefaultMap
from .exceptions import Checked, InvalidWitnessError, ModelValidationError, fold
from .risk import PolicyValues, RiskSpec, evaluate_dynamic_risk

_TOL = 1e-9
_PROB_FLOOR = 1e-15


class TollQuote(NamedTuple):
    """A priced action: signed counterfactual toll plus the charged clamp."""

    signed_toll: float
    positive_toll: float
    safe_default_used: str


class AmbiguitySet(Checked, namedtuple("AmbiguitySet", "models")):
    """Nonempty finite family of models sharing one state/action skeleton."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> AmbiguitySet:
        self = super().__new__(cls, *args, **kwargs)
        if not self.models:
            raise ModelValidationError("ambiguity set must be nonempty", path="ambiguity")
        base = self.models[0]
        for i, m in enumerate(self.models[1:], start=1):
            same = (
                m.horizon == base.horizon
                and m.null_action == base.null_action
                and set(m.terminal_losses) == set(base.terminal_losses)
                and list(m.all_nodes()) == list(base.all_nodes())
                and all(m.actions(t, s) == base.actions(t, s) for t, s in base.all_nodes())
            )
            if not same:
                raise ModelValidationError(
                    f"model {i} does not share the skeleton of model 0",
                    path=f"ambiguity[{i}]",
                )
        return self


class WitnessSpec(Checked, namedtuple("WitnessSpec", "model_index event min_gap hedge_allowance")):
    """Candidate certificate of uncompensated irreversible tail exposure.

    ``event`` is a set of terminal states; ``min_gap`` is the loss gap the
    executed action must carry on the event; ``hedge_allowance`` bounds how
    much of that gap any continuation policy may claw back.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> WitnessSpec:
        self = super().__new__(cls, *args, **kwargs)
        if not self.min_gap > 0:
            raise ModelValidationError("min_gap must be > 0", path="witness.min_gap")
        if not 0 <= self.hedge_allowance < self.min_gap:
            raise ModelValidationError(
                "hedge_allowance must satisfy 0 <= allowance < min_gap",
                path="witness.hedge_allowance",
            )
        return self


def counterfactual_toll(
    model: EnvironmentModel,
    time: int,
    state: str,
    action: str,
    cont: Policy,
    spec: RiskSpec,
    sdm: SafeDefaultMap,
    values: PolicyValues | None = None,
) -> TollQuote:
    """Exact toll of ``action`` at a node: root risk under the forced action
    minus root risk under its forced safe default.

    Both valuations read one set of continuation values: ``values`` when
    given (shared across keys, see :func:`evaluate_dynamic_risk`), else a
    fresh :class:`PolicyValues` for this call.
    """
    default = sdm.default_for(time, state, action)
    if values is None:
        values = PolicyValues(model, cont, spec)
    risk_action = evaluate_dynamic_risk(
        model, Intervention(time, state, action), cont, spec, values=values
    ).root
    risk_default = evaluate_dynamic_risk(
        model, Intervention(time, state, default), cont, spec, values=values
    ).root
    signed = risk_action - risk_default
    return TollQuote(
        signed_toll=signed,
        positive_toll=max(signed, 0.0),
        safe_default_used=default,
    )


def authority_premium(
    amb: AmbiguitySet,
    time: int,
    state: str,
    action: str,
    cont: Policy,
    spec: RiskSpec,
    sdm: SafeDefaultMap,
) -> float:
    """Worst-case clamped toll of ``action`` over the ambiguity set.

    The positive part applies per model before the maximum is taken, which
    coincides with clamping afterwards since the clamp is monotone. Each
    model's action and default share one :class:`PolicyValues` (built by
    :func:`counterfactual_toll`).
    """
    worst = 0.0
    for model in amb.models:
        quote = counterfactual_toll(model, time, state, action, cont, spec, sdm)
        worst = max(worst, quote.positive_toll)
    return worst


def robust_capital(
    amb: AmbiguitySet,
    time: int,
    state: str,
    actions: Sequence[str],
    cont: Policy,
    spec: RiskSpec,
) -> float:
    """Worst-case root risk over models and over the granted action set.
    The actions share one :class:`PolicyValues` per model."""
    if not actions:
        raise ModelValidationError("action set must be nonempty", path="actions")
    best = None
    for model in amb.models:
        values = PolicyValues(model, cont, spec)
        for a in actions:
            root = evaluate_dynamic_risk(
                model, Intervention(time, state, a), cont, spec, values=values
            ).root
            best = root if best is None else max(best, root)
    return float(best)


# ---------------------------------------------------------------------------
# coupled pathwise comparison


def coupled_terminal_cells(
    model: EnvironmentModel,
    time: int,
    state: str,
    action_exec: str,
    action_default: str,
    cont_exec: Policy,
    cont_default: Policy,
) -> list[tuple[float, str, str]]:
    """Joint cells (probability, executed-branch leaf, default-branch leaf)
    under the shared-uniform comonotone coupling of the two forced rollouts.

    Both branches run inside the same model; they may follow different
    continuation policies. Cells with equal state pairs are merged, which is
    sound because the future coupling law depends only on the current pair.
    """
    cells: dict[tuple[str, str], float] = {(state, state): 1.0}
    for t in range(time, model.horizon):
        nxt: dict[tuple[str, str], float] = {}
        for (se, sd), prob in sorted(
            cells.items(), key=lambda kv: (model.state_index(kv[0][0]), model.state_index(kv[0][1]))
        ):
            dist_e = model.effective_next(
                t, se, cont_exec, forced=action_exec if t == time else None
            )
            dist_d = model.effective_next(
                t, sd, cont_default, forced=action_default if t == time else None
            )
            for q, ne, nd in _comonotone_merge(dist_e, dist_d):
                key = (ne, nd)
                nxt[key] = nxt.get(key, 0.0) + prob * q
        cells = nxt
    return [
        (p, se, sd)
        for (se, sd), p in sorted(
            cells.items(), key=lambda kv: (model.state_index(kv[0][0]), model.state_index(kv[0][1]))
        )
        if p > _PROB_FLOOR
    ]


def _comonotone_merge(
    dist_a: Sequence[tuple[str, float]], dist_b: Sequence[tuple[str, float]]
) -> list[tuple[float, str, str]]:
    # Sweep the union of both CDF breakpoints; each segment pins one state on
    # each side. Kernels arrive already sorted in canonical state order.
    out = []
    ia = ib = 0
    cum_a = dist_a[0][1]
    cum_b = dist_b[0][1]
    pos = 0.0
    while True:
        edge = min(cum_a, cum_b)
        seg = edge - pos
        if seg > _PROB_FLOOR:
            out.append((seg, dist_a[ia][0], dist_b[ib][0]))
        pos = edge
        if pos >= 1.0 - _PROB_FLOOR:
            break
        if cum_a <= cum_b + _PROB_FLOOR and ia + 1 < len(dist_a):
            ia += 1
            cum_a += dist_a[ia][1]
        elif ib + 1 < len(dist_b):
            ib += 1
            cum_b += dist_b[ib][1]
        elif ia + 1 < len(dist_a):
            ia += 1
            cum_a += dist_a[ia][1]
        else:
            break
    return out


class WitnessReport(NamedTuple):
    """Outcome of checking the three witness conditions under one model."""

    tail_gap_ok: bool
    hedge_resistant: bool
    risk_strictly_monotone: bool
    event_probability: float
    worst_hedged_gap: float
    policies_enumerated: int

    @property
    def satisfied(self) -> bool:
        return self.tail_gap_ok and self.hedge_resistant and self.risk_strictly_monotone


def verify_witness(
    amb: AmbiguitySet,
    time: int,
    state: str,
    action: str,
    cont: Policy,
    spec: RiskSpec,
    sdm: SafeDefaultMap,
    witness: WitnessSpec,
    hedges: Iterable[Policy],
) -> WitnessReport:
    """Check the three certificate conditions for ``action`` against its safe
    default under the witness model.

    1. Tail-loss gap: on every coupled cell the executed branch loses at
       least as much as the default branch, and at least ``min_gap`` more on
       cells whose executed leaf lies in the event.
    2. Hedging resistance: over every continuation in ``hedges`` of the
       executed branch (every deterministic Markov one, for a certificate;
       the default branch keeps the frozen policy), the smallest gap
       achievable on the event gives back at most ``hedge_allowance``.
    3. Strict risk response: adding ``min_gap`` to the default branch's loss
       on event leaves strictly raises its root valuation under the witness
       model, i.e. the mapping actually sees mass on the event.
    """
    model = amb.models[witness.model_index]
    default = sdm.default_for(time, state, action)
    cells = coupled_terminal_cells(model, time, state, action, default, cont, cont)

    event_prob = fold(p for p, leaf_e, _ in cells if leaf_e in witness.event)
    if event_prob <= 0.0:
        raise InvalidWitnessError(
            "witness event has zero probability under the designated model"
        )

    gaps_all = []
    gaps_event = []
    for p, leaf_e, leaf_d in cells:
        gap = model.terminal_loss(leaf_e) - model.terminal_loss(leaf_d)
        gaps_all.append(gap)
        if leaf_e in witness.event:
            gaps_event.append(gap)
    tail_gap_ok = min(gaps_all) >= -_TOL and min(gaps_event) >= witness.min_gap - _TOL

    achieved = []
    for hedge in hedges:
        hedged_cells = coupled_terminal_cells(model, time, state, action, default, hedge, cont)
        # a hedge that steers the executed branch clear of the event erases
        # the whole gap there
        achieved.append(min(
            (model.terminal_loss(le) - model.terminal_loss(ld)
             for _, le, ld in hedged_cells if le in witness.event),
            default=0.0,
        ))
    worst_hedged = min(achieved, default=0.0)
    reduction = witness.min_gap - worst_hedged
    hedge_resistant = reduction <= witness.hedge_allowance + _TOL

    bumped = model.replaced(losses={
        leaf: loss + witness.min_gap
        for leaf, loss in model.terminal_losses.items()
        if leaf in witness.event
    })
    iv_default = Intervention(time, state, default)
    base_risk = evaluate_dynamic_risk(model, iv_default, cont, spec).root
    bumped_risk = evaluate_dynamic_risk(bumped, iv_default, cont, spec).root
    risk_strictly_monotone = bumped_risk > base_risk + 1e-12

    return WitnessReport(
        tail_gap_ok=tail_gap_ok,
        hedge_resistant=hedge_resistant,
        risk_strictly_monotone=risk_strictly_monotone,
        event_probability=event_prob,
        worst_hedged_gap=worst_hedged,
        policies_enumerated=len(achieved),
    )


class AuthorityCheckReport(NamedTuple):
    """Both halves of the authority-pricing statement for one added action."""

    premium: float
    capital_base: float
    capital_extended: float
    capital_increased: bool
    added_exceeds_base: bool
    iff_holds: bool


def iap_check(
    amb: AmbiguitySet,
    time: int,
    state: str,
    base_actions: Sequence[str],
    added_action: str,
    cont: Policy,
    spec: RiskSpec,
    sdm: SafeDefaultMap,
) -> AuthorityCheckReport:
    """Evaluate the action-level premium and the set-level capital effect of
    granting ``added_action`` on top of ``base_actions``."""
    if added_action in base_actions:
        raise ModelValidationError(
            "added action must not already be in the base set", path="added_action"
        )
    premium = authority_premium(amb, time, state, added_action, cont, spec, sdm)
    capital_base = robust_capital(amb, time, state, base_actions, cont, spec)
    extended = list(base_actions) + [added_action]
    capital_extended = robust_capital(amb, time, state, extended, cont, spec)
    worst_added = max(
        evaluate_dynamic_risk(model, Intervention(time, state, added_action), cont, spec).root
        for model in amb.models
    )
    capital_increased = capital_extended > capital_base
    added_exceeds_base = worst_added > capital_base
    return AuthorityCheckReport(
        premium=premium,
        capital_base=capital_base,
        capital_extended=capital_extended,
        capital_increased=capital_increased,
        added_exceeds_base=added_exceeds_base,
        iff_holds=capital_increased == added_exceeds_base,
    )
