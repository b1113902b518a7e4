"""Suite dispatch, reports, and fault-injection negative controls."""

from __future__ import annotations

import itertools
import math
import os
import threading
from typing import Callable, NamedTuple

import pytest

from tollgate import boundary, envelope, gate, instances, risk, scenario, tolls, verify
from tollgate.envmodel import EnvironmentModel, Intervention
from tollgate.oracle import enumerate_terminal_law, static_risk
from tollgate.tolls import AmbiguitySet
from tollgate.verify import gating_suite, no_splitting_suite, run_suite


@pytest.fixture(scope="module")
def clean():
    """Each suite's clean result at seed 11, by suite name: run once per
    module, so the controls below spend their time on the fault runs. It is
    the one run of the real suites by the forked dispatcher, on any host."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return {result.suite: result for result in run_suite("all", seed=11)}


def test_run_suite_dispatch_and_reports(clean):
    assert list(clean) == ["time-consistency", "cvar-demo", "no-splitting", "iap", "gating"]
    for result in clean.values():
        assert result.passed, result.to_dict()
        payload = result.to_dict()
        assert payload["suite"] == result.suite
        assert all("name" in p and "passed" in p for p in payload["properties"])
    # the suites after the first ran in the forked child; run here, they agree
    forked = list(verify._suite_table().items())[1:]
    assert [fn(11).to_dict() for _, fn in forked] == [clean[s].to_dict() for s, _ in forked]


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus", seed=1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    # the forks the dispatcher makes, counted; it forks on any host, one-CPU ones too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.fixture
def stubbed(monkeypatch):
    # every suite rebound to a stub that returns at once; the results of all
    results = [verify.SuiteResult(suite, 11, ()) for suite in verify.SUITES]
    for result, fn in zip(results, verify._suite_table().values()):
        monkeypatch.setattr(verify, fn.__name__, lambda seed, r=result: r._replace(seed=seed))
    return results


def test_a_fault_patched_here_reaches_the_forked_suites(monkeypatch, stubbed, forks):
    # no-splitting is not the first suite, so it runs in the child, which
    # inherits the patched boundary module
    fault = FAULTS["discounted-sequence-toll"]
    fault.apply(monkeypatch)
    here = []  # runs of no-splitting in this process; the child's stay there
    suite = lambda seed: here.append(seed) or no_splitting_suite(seed)
    monkeypatch.setattr(verify, "no_splitting_suite", suite)
    results = {result.suite: result for result in run_suite("all", seed=11)}
    assert _failing(results["no-splitting"]) == fault.fails["no-splitting"]
    assert forks == [1]
    assert here == []
    _no_child_left()


@pytest.mark.parametrize(
    "suite", ["gating_suite", "time_consistency_suite"], ids=["forked-suite", "first-suite"]
)
def test_a_raising_suite_raises_as_it_does_alone(suite, monkeypatch, stubbed, forks):
    # gating, the last suite, raises in the child and again when it is run
    # here; time-consistency, the first, raises here while the child runs
    def fault(seed):
        raise ArithmeticError(f"injected into {suite}")

    monkeypatch.setattr(verify, suite, fault)
    with pytest.raises(ArithmeticError, match=f"^injected into {suite}$") as dispatched:
        run_suite("all", seed=11)
    assert forks == [1]
    assert type(dispatched.value) is ArithmeticError
    assert dispatched.traceback[-1].name == "fault"
    _no_child_left()


def test_a_fork_that_fails_runs_its_suites_in_process(monkeypatch, stubbed, forks):
    def fork_fails():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", fork_fails)
    assert run_suite("all", seed=11) == stubbed
    _no_child_left()


def test_one_suite_forks_nothing(stubbed, forks):
    # a host that could share the work has no later suite to share
    assert run_suite("cvar-demo", seed=11) == stubbed[1:2]
    assert forks == []


@pytest.mark.parametrize("lacking", ["one-cpu", "sched_getaffinity", "fork"])
def test_a_host_that_cannot_share_runs_the_suites_in_process(lacking, monkeypatch, stubbed, forks):
    # one suite, one CPU, or a platform without sched_getaffinity (macOS) or
    # fork (Windows) forks nothing
    if lacking == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, lacking, raising=False)
    assert run_suite("cvar-demo", seed=11) == stubbed[1:2]
    assert run_suite("all", seed=11) == stubbed
    assert forks == []


def test_a_process_with_other_threads_forks_nothing(stubbed, forks):
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert run_suite("all", seed=11) == stubbed
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    assert forks == []


def _failing(result) -> set[str]:
    return {p.name for p in result.properties if not p.passed}


def _details(result, name: str) -> dict:
    return next(p.details for p in result.properties if p.name == name)


def _discounted_sequence_toll(pot, start, steps):
    # a volume discount on later increments: it breaks the telescoping identity
    exposure = tuple(float(x) for x in start)
    total = 0.0
    for k, step in enumerate(steps):
        after = tuple(e + d for e, d in zip(exposure, step))
        total += (pot.value(after) - pot.value(exposure)) * 0.9**k
        exposure = after
    return total


def _static_root(valuation):
    # a policy valuation whose root is the static shortfall of the terminal
    # law reads the one-shot ordering, which reverses the stagewise one
    def static_root(model, cont, spec):
        law = {}
        for action, p in cont.action_dist(0, model.initial_state):
            iv = Intervention(0, model.initial_state, action)
            for loss, q in enumerate_terminal_law(model, iv, cont).items():
                law[loss] = law.get(loss, 0.0) + p * q
        return valuation(model, cont, spec)._replace(root=static_risk(law, spec))

    return static_root


def _drifting(stream):
    # a stream that shifts each episode by how often it was asked for samples
    # valid trajectories, so only the rerun comparison can catch it
    calls = itertools.count()
    return lambda seed, episode: stream(seed, episode + next(calls))


def _worst_gap_reported(results):
    details = _details(results["no-splitting"], "telescoping-identity")
    assert details["worst_case"]["gap"] == details["worst_gap"] > 1e-6


def _capital_failures_reported(results):
    failures = _details(results["iap"], "capital-iff-random-families")["failures"]
    assert failures and all(isinstance(f["report"], dict) for f in failures)


def _no_hedge_is_a_full_hedge(results):
    # an empty enumeration reads as a hedge that erases the whole gap
    assert "hedgeable-variant-fails-condition-two" not in _failing(results["iap"])


class Fault(NamedTuple):
    """A fault: ``owner.attr``, a function the properties themselves run,
    replaced by ``make(original)``. ``fails`` holds the exact set of
    properties it fails in each suite it runs at seed 11, and ``check``
    asserts on the faulted results, by suite, what those sets do not show."""

    owner: object
    attr: str
    make: Callable
    fails: dict[str, set[str]]
    check: Callable[[dict], None] | None = None

    def apply(self, monkeypatch) -> None:
        monkeypatch.setattr(self.owner, self.attr, self.make(getattr(self.owner, self.attr)))


def _cheap_lost_funds(read):
    # the reader, with the funds a fraudulent wire loses priced at 1.0
    edit = lambda doc: doc["model"]["terminal_losses"].update(funds_lost=1.0) or doc
    return lambda: edit(read())


_CERTIFYING = {  # the iap properties that certify a witness
    "shipped-witness-certifies", "tail-threshold-variant-splits-mappings",
    "certificate-implies-positive-premium",
}

FAULTS = {
    # the built-in instances price their sequences through the same sum
    "discounted-sequence-toll": Fault(
        boundary, "_sequence_toll", lambda toll: _discounted_sequence_toll,
        {"no-splitting": {
            "telescoping-identity", "path-dependence-counterexample",
            "boundary-redesign-restores-pricing", "compliant-instance-has-no-ordering-gap",
        }},
        _worst_gap_reported,
    ),
    # a decreasing potential still telescopes, but charges negative tolls
    "negated-potential": Fault(
        boundary.PotentialSpec, "value", lambda value: lambda pot, e: -value(pot, e),
        {"no-splitting": {
            "toll-nonnegativity", "convex-marginal-monotonicity",
            "boundary-redesign-restores-pricing",
        }},
    ),
    # a concave power potential telescopes and charges nonnegative tolls, but
    # a fixed increment gets cheaper at higher exposure
    "concave-power-potential": Fault(
        boundary.PotentialSpec, "value",
        lambda value: lambda pot, e: value(pot, e) if pot.kind != "power"
        else float(sum(w * x**0.5 for w, x in zip(pot.weights, e))),
        {"no-splitting": {"convex-marginal-monotonicity"}},
    ),
    # a loss variant that keeps the base losses: the cvar instance values
    # loss b as loss a, and a witness bump moves no risk
    "dropped-loss-variants": Fault(
        EnvironmentModel, "replaced",
        lambda replaced: lambda model, rows=None, losses=None, paths=None, *rest: replaced(
            model, rows, None, paths
        ),
        {
            "cvar-demo": {"oracle-agrees-with-static-values", "expectation-tower-no-reversal"},
            "iap": _CERTIFYING,
        },
    ),
    # pricing only the first model misses the worst case that the added
    # action's own root risk, taken over every model, still sees, so the
    # capital increase and the added action's excess part ways
    "first-model-capital": Fault(
        tolls, "robust_capital",
        lambda capital: lambda amb, *args: capital(AmbiguitySet(amb.models[:1]), *args),
        {"iap": {"capital-iff-random-families"}},
        _capital_failures_reported,
    ),
    # a capital over part of a granted action set misses the added action
    # that raises it: the shipped witness no longer binds capital, while the
    # riskier incumbent, dropped from the base set, now seems to raise it
    "capital-over-first-two-actions": Fault(
        tolls, "robust_capital",
        lambda capital: lambda amb, t, s, actions, *rest: capital(amb, t, s, actions[:2], *rest),
        {"iap": {
            "shipped-witness-binds-capital", "riskier-incumbent-leaves-capital-flat",
            "capital-iff-random-families",
        }},
    ),
    # a set of one action keeps it, or none is left
    "capital-without-last-action": Fault(
        tolls, "robust_capital",
        lambda capital: lambda amb, t, s, acts, *rest: capital(amb, t, s, acts[:-1] or acts, *rest),
        {"iap": {"riskier-incumbent-leaves-capital-flat", "capital-iff-random-families"}},
    ),
    # a conditional_es mapping of flipped sign is no longer monotone, so the
    # orderings that the shortfall properties read reverse, and the engine
    # parts from the oracle's static shortfall; the other mappings keep theirs
    "negated-shortfall": Fault(
        risk, "_sigma",
        lambda sigma: lambda spec, *law: -sigma(spec, *law) if spec.kind == "conditional_es"
        else sigma(spec, *law),
        {
            "time-consistency": {"recursive-ordering-implication", "comparison-mapping-axioms"},
            "cvar-demo": {
                "stagewise-ordering-holds", "static-reading-reverses",
                "oracle-agrees-with-static-values",
            },
        },
    ),
    # hedging resistance is judged over every continuation of the executed
    # branch; the frozen one alone never finds the recall that claws the
    # loss back, so the hedgeable variant resists
    "frozen-continuation-alone": Fault(
        verify, "enumerate_policies",
        lambda policies: lambda model, *rest, **kw: iter([instances._payment_continuation(model)]),
        {"iap": {"hedgeable-variant-fails-condition-two"}},
    ),
    # the witnesses read the shipped document, so an edit of it reaches the suite
    "cheap-lost-funds-document": Fault(
        instances, "_payments_document", _cheap_lost_funds,
        {"iap": {"shipped-witness-certifies", "shipped-witness-binds-capital",
                 "hedgeable-variant-fails-condition-two", "riskier-incumbent-leaves-capital-flat"}},
    ),
    "empty-hedge-enumeration": Fault(
        verify, "enumerate_policies", lambda policies: lambda *args, **kwargs: iter(()),
        {"iap": _CERTIFYING},
        _no_hedge_is_a_full_hedge,
    ),
    # a relative error of 1e-6, far above the tower identity's tolerance,
    # also breaks translation invariance and the small-gamma limit
    "inflated-entropic-mapping": Fault(
        risk, "_entropic", lambda entropic: lambda *args: entropic(*args) * (1 + 1e-6),
        {"time-consistency": {
            "entropic-axioms", "entropic-tower-identity", "entropic-vanishing-gamma-limit",
        }},
    ),
    "static-root-valuation": Fault(
        verify, "evaluate_policy_risk", _static_root,
        {"cvar-demo": {"recursive-composition-consistent"}},
    ),
    "drifting-episode-stream": Fault(
        gate, "uniform_stream", _drifting, {"gating": {"episode-determinism"}}
    ),
    # a gate that never tests affordability executes every proposal, and the
    # exact gated law it walks has paths that overrun
    "no-affordability-test": Fault(
        gate, "gate_step", lambda step: lambda budget, *rest: step(math.inf, *rest),
        {"gating": {f"exact-envelope-budget-guarantee[{name}]"
                    for name in ("payments", "database", "trading")}},
    ),
    "no-conformal-inflation": Fault(
        envelope.Envelope, "query", lambda query: lambda env, *key: max(env.predict(*key), 0.0),
        {"gating": {"conformal-envelope-budget-guarantee"}},
    ),
    # a zero truth is covered by every quote, the deflated ones too
    "zero-exact-quoter": Fault(
        scenario, "exact_envelope",
        lambda exact: lambda *args: envelope.Envelope("exact", lambda *key: 0.0),
        {"gating": {"deflated-envelope-fails-audit"}},
    ),
    # the control envelope keeps the fitted inflation, so an unscaled
    # predictor leaves it as well calibrated as the tier it deflates
    "unscaled-deflated-predictor": Fault(
        verify, "scaled_predictor", lambda scaled: lambda predict, factor: predict,
        {"gating": {"deflated-envelope-fails-audit"}},
    ),
}


@pytest.mark.parametrize("name", FAULTS)
def test_fault_fails_its_recorded_set(name, monkeypatch, clean):
    fault = FAULTS[name]
    fault.apply(monkeypatch)
    results = {suite: run_suite(suite, seed=11)[0] for suite in fault.fails}
    assert all(clean[suite].passed for suite in fault.fails)
    assert {suite: _failing(result) for suite, result in results.items()} == fault.fails
    if fault.check:
        fault.check(results)


def test_every_stated_property_has_a_fault(clean):
    stated = {(suite, p.name) for suite, result in clean.items() for p in result.properties}
    named = {
        (suite, prop) for fault in FAULTS.values() for suite, failing in fault.fails.items()
        for prop in failing
    }
    assert stated - named == set(), "a property that no fault fails"
    assert named - stated == set(), "an entry names a property its suite does not state"


def test_the_exact_tier_properties_do_not_depend_on_the_seed():
    # each walks every path of the exact gated law, not a sample drawn by seed
    def exact_tier(seed):
        return [
            (p.name, p.details) for p in gating_suite(seed).properties
            if p.name.startswith("exact-envelope-budget-guarantee[")
        ]

    assert exact_tier(7) == exact_tier(301)
    assert [details["paths"] for _, details in exact_tier(7)] == [11, 10, 8]
