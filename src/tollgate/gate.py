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
Episodes sample their proposals and transitions from the standard
library's Mersenne Twister, one generator per ``(seed, episode)``.

A :class:`Gate` memoises that fold along sampled prefixes. The prefix
``(proposed, next_state)*`` of an episode fixes its time, state, budget and
ledger, so a proposal already decided on the same prefix gets the same
decision back: that is exact because the step is pure. Episodes that walk
one path share their ``entries`` and ``boundary_records`` objects, which
the run-log writers encode once per path.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter, namedtuple
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from math import copysign
from operator import index
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .boundary import BoundaryLedger
from .exceptions import Checked, ModelValidationError

if TYPE_CHECKING:
    from .envmodel import EnvironmentModel, Policy

FALLBACK_MODES = ("downgrade", "escalate", "block")


class Verdict(str, Enum):
    EXECUTE = "EXECUTE"
    DOWNGRADE = "DOWNGRADE"
    ESCALATE_APPROVED = "ESCALATE_APPROVED"
    ESCALATE_DENIED = "ESCALATE_DENIED"
    BLOCK = "BLOCK"


# Distinct paths one memo holds: the paths a run-log writer holds encoded,
# keyed by the identity of their objects, the summary rows the run-log
# reader holds checked, and the paths the audit holds replayed, both keyed
# by their values and spelling. The episodes one Gate samples share the
# entries and boundary records of each path they walk, so each memo does a
# path's work once while it holds it. A run with more distinct paths than
# this does some work again.
_PATHS_HELD = 64


class GateEntry(NamedTuple):
    time: int
    state: str
    proposed: str
    envelope_value: float
    verdict: Verdict
    executed: str
    budget_after: float
    boundary_version: int


class GateConfig(
    Checked,
    namedtuple(
        "GateConfig",
        "initial_budget fallback_order envelope safe_defaults exact_quoter"
        " escalation_policy boundaries exposure",
        defaults=({}, (), {}),
    )
):
    """Wiring for one gate: budget, fallback chain, approver, and quoting.

    ``envelope`` quotes each proposal; ``exact_quoter``, an envelope of the
    deep-simulation tier, re-quotes approved escalations. ``safe_defaults``
    is a :class:`SafeDefaultMap`. ``escalation_policy`` maps action ids to
    "approve" or "deny", with an optional "default" key; the approver is
    scripted because runs are batch. ``boundaries`` is a tuple of
    :class:`BoundarySpec`, and ``exposure`` maps (time, state, action) to
    each boundary id's increment. The default mappings are shared and never
    mutated.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GateConfig:
        self = super().__new__(cls, *args, **kwargs)
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
        return self

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
    remaining budget executes.
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
        time, state, proposed, quoted, verdict, executed, budget - charged, ledger.first_version
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
    boundary_records: tuple[dict, ...]


def uniform_stream(seed: int, episode: int) -> Callable[[], float]:
    """The uniform draws of one episode: ``random.Random(k).random``, keyed
    by the Cantor pairing ``k = (s + e)(s + e + 1) / 2 + e`` of the seed
    ``s`` and the episode ``e``. The pairing is one-to-one on non-negative
    integers of any size, so distinct pairs seed distinct generators.
    Python guarantees that ``random()`` gives the same sequence for the same
    int seed across versions, so a run's artifacts do too. A negative seed
    or episode raises :class:`ModelValidationError`."""
    s, e = index(seed), index(episode)
    if s < 0 or e < 0:
        raise ModelValidationError(
            f"a seed or episode must be a non-negative integer, got {min(s, e)}"
        )
    return random.Random((s + e) * (s + e + 1) // 2 + e).random


@lru_cache(maxsize=1 << 14)
def _inverse_cdf(row: tuple[tuple[str, float], ...]) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Labels and CDF of a ``(label, probability)`` row: the running sum
    divided by its last element, which makes the last value exactly 1.0, so
    ``labels[bisect_right(cdf, uniform())]`` always draws a label, and never
    one of zero mass. Rows are immutable tuples held by the policy or the
    model, so the memo keys on the row itself."""
    cdf = list(accumulate(float(p) for _, p in row))
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
# holds a bounded trie. Past the held prefixes every step calls
# _inverse_cdf, so its memo stays: without it, 300 warm ladder episodes took
# 27-28 ms instead of 15-21 ms.
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

    Deterministic for a fixed (seed, episode): proposals and transitions
    draw, in a fixed call order, from the one stream
    :func:`uniform_stream` returns, each by searching one uniform in the
    row's CDF. A negative seed or episode raises
    :class:`ModelValidationError`. The executed action, not the proposed
    one, drives the transition. The log holds ``index(episode)``, so an
    episode of ``True`` logs as ``1``, which the log readers accept.

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
    return EpisodeLog(index(episode), entries, terminal_loss, records)


# ---------------------------------------------------------------------------
# audit


# What the audit counts per path and adds up over episodes: the entries
# per verdict, in declaration order, then the quotes, the covered quotes,
# and whether the path violates coverage and overruns its budget.
_TALLIES = (*Verdict, "quotes", "quotes_covered", "violations", "overruns")


class AuditReport(NamedTuple):
    """Outcome of replaying a batch of episode logs through their gate."""

    episodes: int
    quotes: int
    quotes_covered: int
    overruns: int
    overrun_fraction: float
    violation_fraction: float
    threshold: float
    passed: bool
    accounting_exact: bool
    decisions: dict[str, int]  # entries per verdict value, in declaration order
    final_min: float  # the least and the mean final budget, NaN for no logs
    final_mean: float


def _signs(entries: tuple[GateEntry, ...], records: tuple[dict, ...]) -> tuple:
    """The signs of the zeros among the floats a path's log lines write:
    equal floats are written apart only as zeros of opposite sign."""
    return (
        *[copysign(1.0, x) for e in entries for x in (e.envelope_value, e.budget_after) if not x],
        *[copysign(1.0, x) for record in records for x in record["exposure"] if not x],
    )


def _drawn(row: tuple[tuple[str, float], ...], label: str | None) -> bool:
    """Whether a ``(label, probability)`` row draws ``label``."""
    return any(p > 0.0 for drawn, p in row if drawn == label)


def audit_budget_guarantee(logs: Iterable[EpisodeLog], gate: Gate, delta: float) -> AuditReport:
    """Replay every episode of ``logs`` through ``gate`` and check the
    budget guarantee, in one pass over ``logs`` that keeps running totals.

    The replay starts each path from ``gate.empty_ledger`` and the initial
    budget of ``gate.cfg``, and decides each logged proposal with
    :func:`gate_step` at the logged state and the budget before it. The
    accounting holds when each path is one the gate can walk (one entry per
    time step from the initial state, each proposal drawn by the policy and
    each next state by the executed action's kernel), each logged step is
    what ``gate_step`` gives, the replay ends at the episode's boundary
    records, all by value and by the signs of their zeros, and the
    episode's terminal loss is, as ``repr`` writes it, the loss of a leaf
    that the path's last executed step reaches with positive probability.
    A loss edited onto another such leaf's loss passes: no artifact records
    the leaf.

    The true tolls come from ``gate.cfg.exact_quoter``. An episode violates
    coverage when some quoted proposal's true toll exceeds its logged
    envelope value; it overruns when the executed true tolls sum above the
    initial budget. A NaN quote, toll or sum is never within its bound, so
    it counts against the run, and so does an entry off every path the gate
    can walk, which has no true toll. The batch passes when the accounting
    holds and the overrun fraction stays within delta plus three binomial
    sigmas (exactly zero when delta is zero, the exact-envelope case).

    Everything but the terminal loss and boundary records follows from an
    episode's entries and the signs of its zeros (:func:`_signs`), so each
    distinct path is replayed once while at most ``_PATHS_HELD`` paths are
    held, told apart by value and by those signs; each episode then adds
    its path's tally. An episode's final budget is its last entry's
    ``budget_after``.
    """
    cfg, model = gate.cfg, gate.model
    truth = cfg.exact_quoter.predict

    @lru_cache(maxsize=_PATHS_HELD)
    def audited(entries: tuple[GateEntry, ...], signs: tuple) -> tuple:
        """The path's tally in ``_TALLIES`` order, whether the gate replays
        it and the ``signs`` of its zeros, the losses of the leaves it may
        end in as ``repr`` writes them, and the replay's boundary records."""
        tally = dict.fromkeys(_TALLIES, 0)
        exact = len(entries) == model.horizon
        budget, ledger = cfg.initial_budget, gate.empty_ledger
        state = model.initial_state if exact else None
        true_sum, kernel, steps = 0.0, (), []
        for t, entry in enumerate(entries):
            tally[entry.verdict] += 1
            on_path = (entry.time, entry.state) == (t, state)
            if on_path and _drawn(gate.policy.action_dist(t, state), entry.proposed):
                proposed = entry.proposed
                step, _, ledger = gate_step(budget, cfg, model, ledger, t, state, proposed, {})
                exact &= step == entry
                steps.append(step)
                budget = step.budget_after
                true_toll = truth(t, state, proposed)
                diverted = step.executed != proposed
                true_sum += truth(t, state, step.executed) if diverted else true_toll
                following = entries[t + 1].state if t + 1 < len(entries) else None
                kernel = model.kernel(t, state, step.executed)
                state = following if _drawn(kernel, following) else None
            else:
                exact, state, true_toll, true_sum = False, None, math.nan, math.nan
            if true_toll <= entry.envelope_value + 1e-9:
                tally["quotes_covered"] += 1
            else:
                tally["violations"] = 1
        tally["quotes"] = len(entries)
        tally["overruns"] = not (true_sum <= cfg.initial_budget + 1e-9)
        # an exact replay ends on its last executed step's kernel, whose
        # targets are leaves
        leaves = [leaf for leaf, p in kernel if p > 0.0] if exact else []
        losses = frozenset(repr(model.terminal_loss(leaf)) for leaf in leaves)
        exact &= _signs(steps, ledger.records) == signs
        return tuple(tally.values()), exact, losses, ledger.records

    n = 0
    episodes: Counter[tuple[int, ...]] = Counter()  # episodes per path tally
    accounting_exact = True
    final_min, final_sum = math.nan, 0  # folded as min() and fold() fold them
    for n, log in enumerate(logs, 1):
        signs = _signs(log.entries, log.boundary_records)
        tally, exact, losses, records = audited(log.entries, signs)
        episodes[tally] += 1
        accounting_exact &= (
            exact and repr(log.terminal_loss) in losses and records == log.boundary_records
        )
        final = log.entries[-1].budget_after
        final_min = final if n == 1 else min(final_min, final)
        final_sum += final
    total = dict.fromkeys(_TALLIES, 0)
    for tally, k in episodes.items():
        for name, count in zip(_TALLIES, tally):
            total[name] += count * k
    quotes, overruns, violations = total["quotes"], total["overruns"], total["violations"]
    overrun_fraction = overruns / n if n else 0.0
    violation_fraction = violations / n if n else 0.0
    threshold = delta + (3.0 * math.sqrt(delta * (1.0 - delta) / n) if n else 0.0)
    passed = violation_fraction <= threshold and overrun_fraction <= violation_fraction + 1e-12
    return AuditReport(
        episodes=n,
        quotes=quotes,
        quotes_covered=total["quotes_covered"],
        overruns=overruns,
        overrun_fraction=overrun_fraction,
        violation_fraction=violation_fraction,
        threshold=threshold,
        passed=passed and accounting_exact,
        accounting_exact=accounting_exact,
        decisions={v.value: total[v] for v in Verdict},
        final_min=final_min,
        final_mean=final_sum / n if n else math.nan,
    )
