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

A :class:`Gate` memoises that fold along sampled prefixes. The prefix
``(proposed, next_state)*`` of an episode fixes its time, state, budget and
ledger, so a proposal already decided on the same prefix gets the same
decision back: that is exact because the step is pure. Episodes that walk
one path share their ``entries`` and ``boundary_records`` objects, which
the run-log writers encode once per path.
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
    node: dict,
) -> tuple[GateEntry, float, BoundaryLedger]:
    """Decide one proposal against the remaining ``budget``; return the
    entry, the amount charged and the next ledger, which holds the executed
    action's exposure. ``ledger`` itself is left as it was.

    ``node`` holds the steps already decided on this step's sampled prefix,
    keyed by proposal; a step decided here is stored in it. The other
    arguments are fixed by the prefix, so a stored step is returned as it
    is. Pass ``{}`` to decide afresh.

    The envelope comparison is non-strict: a quote exactly equal to the
    remaining budget executes. An episode decides once per time step, so
    the entry's step is its time.
    """
    step = node.get(proposed)
    if step is not None:
        return step
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
    step = node[proposed] = (entry, charged, ledger)
    return step


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


class EpisodeLog(NamedTuple):
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


class _Prefix(dict):
    """One node of a :class:`Gate`'s trie: what the gate decided on one
    sampled prefix. As a dict it is the memo of :func:`gate_step`, the steps
    keyed by proposal. ``proposals`` holds the proposal labels and CDF at
    its ``(time, state)``; ``moves`` holds, per proposal, the executed
    action's transition labels and CDF and the child prefixes keyed by next
    state; ``outcome`` holds, at the horizon, the episode's shared entries,
    terminal loss and boundary records."""

    __slots__ = ("proposals", "moves", "outcome")

    def __init__(self) -> None:
        self.proposals = self.outcome = None
        self.moves: dict[str, tuple[tuple[str, ...], tuple[float, ...], dict]] = {}


# Prefixes one Gate holds at most, at about 0.7 kB each. The paths a run
# repeats are few: each bundled scenario walks at most 11 distinct paths in
# 5,000 episodes, through at most 23 prefixes. An episode that leaves the
# held prefixes decides the rest of its path afresh, so a run with many
# distinct paths, like the 6x80 ladder's 1,362 prefixes in 300 episodes,
# holds a bounded trie.
_PREFIXES_HELD = 256


class Gate:
    """A gate on one model and proposal policy, and what it has decided.

    It holds the empty ledger, whose boundary ids are checked once, and a
    trie of the sampled prefixes its episodes walked, at most
    ``_PREFIXES_HELD`` of them. :func:`run_episode` decides, commits and
    samples each held prefix once, and the episodes that walk one held path
    share its entries and boundary records. Build one gate per batch of
    episodes.
    """

    def __init__(self, model: EnvironmentModel, policy: Policy, cfg: GateConfig) -> None:
        self.model, self.policy, self.cfg = model, policy, cfg
        self.empty_ledger = BoundaryLedger.empty(cfg.boundaries)
        self.root = _Prefix()
        self.prefixes = 1


def run_episode(gate: Gate, seed: int, episode: int = 0) -> EpisodeLog:
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

    Every draw is consumed; each step walks the gate's trie one prefix down,
    and a step, a CDF or an outcome the trie already holds is reused. The
    budget after a step is its entry's ``budget_after``, which is the
    remaining budget minus the charge.
    """
    uniform = uniform_stream(seed, episode)
    model, cfg = gate.model, gate.cfg
    budget, ledger, node = cfg.initial_budget, gate.empty_ledger, gate.root
    entries = []
    state = model.initial_state
    for t in range(model.horizon):
        if node.proposals is None:
            node.proposals = _inverse_cdf(gate.policy.action_dist(t, state))
        actions, cdf = node.proposals
        proposed = actions[bisect_right(cdf, uniform())]
        entry, _, ledger = gate_step(budget, cfg, model, ledger, t, state, proposed, node)
        budget = entry.budget_after
        entries.append(entry)
        move = node.moves.get(proposed)
        if move is None:
            move = node.moves[proposed] = (
                *_inverse_cdf(model.kernel(t, state, entry.executed)), {}
            )
        targets, cdf, children = move
        state = targets[bisect_right(cdf, uniform())]
        node = children.get(state)
        if node is None:
            node = _Prefix()
            if gate.prefixes < _PREFIXES_HELD:
                children[state] = node
                gate.prefixes += 1
    if node.outcome is None:
        node.outcome = (tuple(entries), model.terminal_loss(state), ledger.records)
    entries, terminal_loss, records = node.outcome
    return EpisodeLog(episode, entries, terminal_loss, cfg.initial_budget, budget, records)


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
