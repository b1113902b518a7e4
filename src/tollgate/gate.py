"""Budgeted execution gate: quote, compare, execute or fall back, charge,
log.

One gate instance runs one episode, strictly sequentially. Each proposed
action is quoted through the configured envelope; an affordable quote
executes and is charged against the remaining budget, an unaffordable one
walks the configured fallback chain:

* ``downgrade``  re-quotes the contractual safe default and executes it
  uncharged when its own quote is affordable,
* ``escalate``   consults the scripted approver; on approval the proposal is
  re-quoted at the exact tier and executes, charged, only if that refined
  quote fits the budget,
* ``block``      executes the no-op and charges nothing.

A chain that exhausts without resolving blocks implicitly. The budget only
ever decreases by charged quotes, so the running sum of charges equals the
initial budget minus the final budget, entry by entry. A step is a pure
function of its arguments: it returns the entry, the charge and the next
boundary ledger, and an episode folds the steps over ``(budget, ledger)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from ._stream import add_reduce, uniform_stream
from .boundary import BoundaryLedger
from .exceptions import ModelValidationError

if TYPE_CHECKING:
    from .boundary import BoundarySpec
    from .envelope import Envelope
    from .envmodel import EnvironmentModel, Policy, SafeDefaultMap

FALLBACK_MODES = ("downgrade", "escalate", "block")


class Verdict(str, Enum):
    EXECUTE = "EXECUTE"
    DOWNGRADE = "DOWNGRADE"
    ESCALATE_APPROVED = "ESCALATE_APPROVED"
    ESCALATE_DENIED = "ESCALATE_DENIED"
    BLOCK = "BLOCK"


_VERDICTS_BY_VALUE = tuple((v.value, v) for v in Verdict)


class GateEntry(NamedTuple):
    step: int
    time: int
    state: str
    proposed: str
    envelope_value: float
    verdict: Verdict
    executed: str
    budget_after: float
    boundary_version: int


@dataclass(frozen=True)
class GateConfig:
    """Wiring for one gate: budget, fallback chain, approver, and quoting.

    ``escalation_policy`` maps action ids to "approve" or "deny", with an
    optional "default" key; the approver is scripted because runs are batch.
    ``exact_quoter`` is the deep-simulation tier used to re-quote approved
    escalations.
    """

    initial_budget: float
    fallback_order: tuple[str, ...]
    envelope: Envelope
    safe_defaults: SafeDefaultMap
    exact_quoter: Envelope
    escalation_policy: Mapping[str, str] = field(default_factory=dict)
    boundaries: tuple[BoundarySpec, ...] = ()
    exposure: Mapping[tuple[int, str, str], Mapping[str, tuple[float, ...]]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.initial_budget >= 0.0:
            raise ModelValidationError("initial budget must be >= 0", path="gate.initial_budget")
        if not self.fallback_order:
            raise ModelValidationError("fallback order must be nonempty", path="gate.fallback_order")
        seen = set()
        for mode in self.fallback_order:
            if mode not in FALLBACK_MODES:
                raise ModelValidationError(
                    f"unknown fallback mode {mode!r}", path="gate.fallback_order"
                )
            if mode in seen:
                raise ModelValidationError(
                    f"duplicate fallback mode {mode!r}", path="gate.fallback_order"
                )
            seen.add(mode)

    def approves(self, action: str) -> bool:
        ruling = self.escalation_policy.get(action, self.escalation_policy.get("default", "deny"))
        return ruling == "approve"


def gate_step(
    budget: float,
    cfg: GateConfig,
    model: EnvironmentModel,
    ledger: BoundaryLedger,
    time: int,
    state: str,
    proposed: str,
) -> tuple[GateEntry, float, BoundaryLedger]:
    """Decide one proposal against the remaining ``budget``; return the
    entry, the amount charged and the next ledger, which holds the executed
    action's exposure. ``ledger`` itself is left as it was.

    The envelope comparison is non-strict: a quote exactly equal to the
    remaining budget executes. An episode decides once per time step, so
    the entry's step is its time.
    """
    quoted = cfg.envelope.query(time, state, proposed)
    if quoted <= budget:
        verdict, executed, charged = Verdict.EXECUTE, proposed, quoted
    else:
        verdict, executed, charged = _fall_back(budget, cfg, model, time, state, proposed)
    for boundary_id, inc in cfg.exposure.get((time, state, executed), {}).items():
        ledger = ledger.commit(boundary_id, inc)
    entry = GateEntry(
        time, time, state, proposed, quoted, verdict, executed,
        budget - charged, ledger.first_version,
    )
    return entry, charged, ledger


def _fall_back(
    budget: float,
    cfg: GateConfig,
    model: EnvironmentModel,
    time: int,
    state: str,
    proposed: str,
) -> tuple[Verdict, str, float]:
    """Walk the fallback chain for an unaffordable proposal: the verdict,
    the executed action and its charge."""
    last_denied = False
    for mode in cfg.fallback_order:
        last_denied = False
        if mode == "downgrade":
            fallback = cfg.safe_defaults.default_for(time, state, proposed)
            if fallback not in model.actions(time, state):
                continue
            if cfg.envelope.query(time, state, fallback) <= budget:
                return Verdict.DOWNGRADE, fallback, 0.0
        elif mode == "escalate":
            if cfg.approves(proposed):
                refined = cfg.exact_quoter.query(time, state, proposed)
                if refined <= budget:
                    return Verdict.ESCALATE_APPROVED, proposed, refined
            else:
                last_denied = True
        elif mode == "block":
            return Verdict.BLOCK, model.null_action, 0.0
    # chain exhausted: block implicitly, tagged with the denial if an
    # approver had the last word
    return (Verdict.ESCALATE_DENIED if last_denied else Verdict.BLOCK), model.null_action, 0.0


# ---------------------------------------------------------------------------
# episodes


@dataclass(frozen=True)
class EpisodeLog:
    episode: int
    entries: tuple[GateEntry, ...]
    terminal_loss: float
    budget_initial: float
    budget_final: float
    boundary_records: tuple[dict, ...]

    @property
    def charged_total(self) -> float:
        return math.fsum(e_prev - e.budget_after for e_prev, e in _budget_steps(self))

    def decision_counts(self) -> dict[str, int]:
        """Entries per verdict, keyed by value in declaration order."""
        verdicts = [e.verdict for e in self.entries]
        return {value: verdicts.count(v) for value, v in _VERDICTS_BY_VALUE}


def _budget_steps(log: EpisodeLog):
    prev = log.budget_initial
    for entry in log.entries:
        yield prev, entry
        prev = entry.budget_after


@lru_cache(maxsize=1 << 14)
def _inverse_cdf(row: tuple[tuple[str, float], ...]) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Labels and normalised CDF of a ``(label, probability)`` row, built with
    the arithmetic ``Generator.choice(n, p=q)`` uses on ``q = p / p.sum()``,
    its pairwise ``sum`` reproduced by :func:`add_reduce`:
    ``labels[bisect_right(cdf, uniform())]`` then draws exactly the label
    ``choice`` would. Rows are immutable tuples held by the policy or the
    model, so the memo keys on the row itself."""
    probs = [float(p) for _, p in row]
    total = add_reduce(probs)
    cdf = list(accumulate(p / total for p in probs))
    last = cdf[-1]
    return tuple(label for label, _ in row), tuple(c / last for c in cdf)


# The empty ledger is a value, so the episodes of a gate share one and its
# boundary ids are checked once, not once per episode.
_empty_ledger = lru_cache(maxsize=64)(BoundaryLedger.empty)


def run_episode(
    model: EnvironmentModel,
    proposal_policy: Policy,
    cfg: GateConfig,
    seed: int,
    episode: int = 0,
) -> EpisodeLog:
    """Gate one sampled trajectory from the model's initial state.

    Deterministic for a fixed (seed, episode): proposals and transitions draw
    from one stream in a fixed call order. The stream is that of
    ``default_rng(SeedSequence([seed, episode])).random``, reproduced bit for
    bit in pure Python by :func:`uniform_stream`, and each draw repeats
    ``Generator.choice``'s inverse-CDF arithmetic (one uniform searched in
    the normalised cumulative sum), so the trajectories are the ones that
    generator would sample. A negative seed or episode raises
    :class:`ModelValidationError`. The executed action, not the proposed
    one, drives the transition.
    """
    uniform = uniform_stream(seed, episode)
    budget, ledger = cfg.initial_budget, _empty_ledger(tuple(cfg.boundaries))
    entries = []
    state = model.initial_state
    for t in range(model.horizon):
        actions, cdf = _inverse_cdf(proposal_policy.action_dist(t, state))
        proposed = actions[bisect_right(cdf, uniform())]
        entry, charged, ledger = gate_step(budget, cfg, model, ledger, t, state, proposed)
        budget -= charged
        entries.append(entry)
        targets, cdf = _inverse_cdf(model.kernel(t, state, entry.executed))
        state = targets[bisect_right(cdf, uniform())]
    return EpisodeLog(
        episode=episode,
        entries=tuple(entries),
        terminal_loss=model.terminal_loss(state),
        budget_initial=cfg.initial_budget,
        budget_final=budget,
        boundary_records=ledger.records,
    )


# ---------------------------------------------------------------------------
# audit


@dataclass(frozen=True)
class AuditReport:
    """Outcome of recomputing true tolls over a batch of episode logs."""

    episodes: int
    quotes: int
    quotes_covered: int
    overruns: int
    overrun_fraction: float
    violation_fraction: float
    threshold: float
    passed: bool
    accounting_exact: bool


def audit_budget_guarantee(
    logs: Sequence[EpisodeLog],
    true_positive_toll: Callable[[int, str, str], float],
    delta: float,
) -> AuditReport:
    """Recompute every executed action's true positive toll and check the
    budget guarantee.

    An episode violates coverage when some quoted proposal's true toll
    exceeds its logged envelope value; it overruns when the executed true
    tolls sum above its initial budget. A NaN quote, toll or sum is never
    within its bound, so it counts against the run. The batch passes when
    the overrun fraction stays within delta plus three binomial sigmas
    (exactly zero when delta is zero, the exact-envelope case). Charge
    accounting is replayed entry by entry and must reproduce the final
    budget bit for bit.
    """
    n = len(logs)
    quotes = 0
    quotes_covered = 0
    overruns = 0
    violations = 0
    accounting_exact = True
    for log in logs:
        true_sum = 0.0
        covered = True
        budget = prev_budget = log.budget_initial
        for entry in log.entries:
            budget = budget - (prev_budget - entry.budget_after)
            prev_budget = entry.budget_after
            true_sum += true_positive_toll(entry.time, entry.state, entry.executed)
            true_toll = true_positive_toll(entry.time, entry.state, entry.proposed)
            if not (true_toll <= entry.envelope_value + 1e-9):
                covered = False
            else:
                quotes_covered += 1
        quotes += len(log.entries)
        accounting_exact &= budget == log.budget_final
        overruns += not (true_sum <= log.budget_initial + 1e-9)
        violations += not covered
    overrun_fraction = overruns / n if n else 0.0
    violation_fraction = violations / n if n else 0.0
    if delta == 0.0:
        threshold = 0.0
        passed = overruns == 0 and violations == 0
    else:
        slack = 3.0 * math.sqrt(delta * (1.0 - delta) / n) if n else 0.0
        threshold = delta + slack
        passed = violation_fraction <= threshold and overrun_fraction <= violation_fraction + 1e-12
    return AuditReport(
        episodes=n,
        quotes=quotes,
        quotes_covered=quotes_covered,
        overruns=overruns,
        overrun_fraction=overrun_fraction,
        violation_fraction=violation_fraction,
        threshold=threshold,
        passed=passed and accounting_exact,
        accounting_exact=accounting_exact,
    )
