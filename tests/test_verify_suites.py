"""Suite dispatch, reports, and fault-injection negative controls."""

from __future__ import annotations

import itertools
import os
import threading

import pytest

from tollgate import boundary, gate, risk, tolls, verify, witnesses
from tollgate.envmodel import EnvironmentModel, Intervention
from tollgate.oracle import enumerate_terminal_law, static_risk
from tollgate.tolls import AmbiguitySet
from tollgate.verify import (
    cvar_demo_suite,
    gating_suite,
    iap_suite,
    no_splitting_suite,
    run_suite,
    time_consistency_suite,
)


@pytest.fixture(scope="module")
def clean():
    """Each suite's clean result at seed 11, by suite name: run once per
    module, so the controls below spend their time on the fault runs. It is
    run by the forked dispatcher on any host, so the serial runs below also
    show that the forked results equal the serial ones."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", _two_cpus, raising=False)
        return {result.suite: result for result in run_suite("all", seed=11)}


def _two_cpus(pid):
    return {0, 1}


def test_run_suite_dispatch_and_reports(clean):
    assert list(clean) == ["time-consistency", "cvar-demo", "no-splitting", "iap", "gating"]
    for result in clean.values():
        assert result.passed, result.to_dict()
        payload = result.to_dict()
        assert payload["suite"] == result.suite
        assert all("name" in p and "passed" in p for p in payload["properties"])


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus", seed=1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_fork():
    raise AssertionError("forked")


def _dicts(results) -> list[dict]:
    return [result.to_dict() for result in results]


@pytest.fixture
def two_cpus(monkeypatch):
    # the dispatcher forks on any host, also on one with one CPU
    monkeypatch.setattr(os, "sched_getaffinity", _two_cpus, raising=False)


def test_a_fault_patched_here_reaches_the_forked_suites(monkeypatch, two_cpus):
    # no-splitting is not the first suite, so it runs in the child, which
    # inherits the patched boundary module
    monkeypatch.setattr(boundary, "_sequence_toll", _discounted_sequence_toll)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    here = []  # runs of no-splitting in this process; the child's stay there
    suite = verify.no_splitting_suite
    monkeypatch.setattr(verify, "no_splitting_suite", lambda seed: here.append(seed) or suite(seed))
    results = {result.suite: result for result in run_suite("all", seed=11)}
    assert "telescoping-identity" in _failing(results["no-splitting"])
    assert forks == [1]
    assert here == []
    _no_child_left()


@pytest.mark.parametrize(
    "patched, suite",
    [("calibrate_conformal", gating_suite), ("check_axioms", time_consistency_suite)],
    ids=["forked-suite", "first-suite"],
)
def test_a_raising_suite_raises_as_it_does_alone(patched, suite, monkeypatch, two_cpus):
    # gating, the last suite, raises in the child and again when it is run
    # here; time-consistency, the first, raises here while the child runs
    def fault(*args, **kwargs):
        raise ArithmeticError(f"injected into {patched}")

    monkeypatch.setattr(verify, patched, fault)
    with pytest.raises(ArithmeticError) as alone:
        suite(seed=11)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    with pytest.raises(ArithmeticError) as dispatched:
        run_suite("all", seed=11)
    assert forks == [1]
    assert type(dispatched.value) is type(alone.value)
    assert str(dispatched.value) == str(alone.value)
    assert dispatched.traceback[-1].name == alone.traceback[-1].name == "fault"
    _no_child_left()


def test_a_fork_that_fails_runs_its_suites_in_process(monkeypatch, clean, two_cpus):
    def fork_fails():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", fork_fails)
    assert _dicts(run_suite("all", seed=11)) == _dicts(clean.values())
    _no_child_left()


@pytest.mark.parametrize("lacking", ["one-cpu", "sched_getaffinity", "fork"])
def test_a_host_that_cannot_share_runs_the_suites_in_process(lacking, monkeypatch, clean):
    # one suite, one CPU, or a platform without sched_getaffinity (macOS) or
    # fork (Windows) forks nothing
    if lacking == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, lacking, raising=False)
    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", _no_fork)
    assert _dicts(run_suite("cvar-demo", seed=11)) == _dicts([clean["cvar-demo"]])
    assert _dicts(run_suite("all", seed=11)) == _dicts(clean.values())


def test_a_process_with_other_threads_forks_nothing(monkeypatch, two_cpus):
    monkeypatch.setattr(os, "fork", _no_fork)
    for suite, fn in verify._suite_table().items():
        monkeypatch.setattr(verify, fn.__name__, lambda seed, suite=suite: suite)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert run_suite("all", seed=11) == list(verify.SUITES)
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()


def _discounted_sequence_toll(pot, start, steps):
    # a volume discount on later increments: it breaks the telescoping identity
    exposure = tuple(float(x) for x in start)
    total = 0.0
    for k, step in enumerate(steps):
        after = tuple(e + d for e, d in zip(exposure, step))
        total += (pot.value(after) - pot.value(exposure)) * 0.9**k
        exposure = after
    return total


def test_no_splitting_fault_injection_fails_with_payload(monkeypatch):
    # the suite's own tolerance rule must catch a volume discount and report
    # the worst gap
    monkeypatch.setattr(boundary, "_sequence_toll", _discounted_sequence_toll)
    result = no_splitting_suite(seed=11)
    assert not result.passed
    props = {p.name: p for p in result.properties}
    broken = props["telescoping-identity"]
    assert not broken.passed
    worst = broken.details["worst_gap"]
    assert worst > 1e-6
    assert broken.details["worst_case"]["gap"] == worst
    # the built-in instances price their sequences through the same sum
    for name in (
        "path-dependence-counterexample",
        "boundary-redesign-restores-pricing",
        "compliant-instance-has-no-ordering-gap",
    ):
        assert not props[name].passed, name


def _failing(result) -> set[str]:
    return {p.name for p in result.properties if not p.passed}


def test_no_splitting_negated_potential_fails_nonnegativity(monkeypatch):
    # a decreasing potential still telescopes, but charges negative tolls
    value = boundary.PotentialSpec.value
    monkeypatch.setattr(boundary.PotentialSpec, "value", lambda pot, e: -value(pot, e))
    failing = _failing(no_splitting_suite(seed=11))
    assert "toll-nonnegativity" in failing
    assert "telescoping-identity" not in failing


def test_no_splitting_concave_power_fails_marginal_monotonicity(monkeypatch):
    # a concave power potential telescopes and charges nonnegative tolls, but
    # a fixed increment gets cheaper at higher exposure
    value = boundary.PotentialSpec.value

    def concave(pot, exposure):
        if pot.kind != "power":
            return value(pot, exposure)
        return float(sum(w * e**0.5 for w, e in zip(pot.weights, exposure)))

    monkeypatch.setattr(boundary.PotentialSpec, "value", concave)
    assert _failing(no_splitting_suite(seed=11)) == {"convex-marginal-monotonicity"}


def test_dropped_loss_variants_fail_cvar_demo_and_iap(monkeypatch, clean):
    # a loss variant that keeps the base losses: the cvar instance values
    # loss b as loss a, and a witness bump moves no risk
    replaced = EnvironmentModel.replaced

    def without_losses(model, rows=None, losses=None, paths=None, losses_path="terminal_losses"):
        return replaced(model, rows, None, paths)

    assert not _failing(clean["cvar-demo"])
    assert not _failing(clean["iap"])
    monkeypatch.setattr(EnvironmentModel, "replaced", without_losses)
    assert _failing(cvar_demo_suite(seed=11)) == {
        "oracle-agrees-with-static-values",
        "expectation-tower-no-reversal",
    }
    assert _failing(iap_suite(seed=11)) == {
        "shipped-witness-certifies",
        "tail-threshold-variant-splits-mappings",
        "certificate-implies-positive-premium",
    }


def test_first_model_capital_fails_capital_iff(monkeypatch, clean):
    # a robust capital that prices only the first model misses the worst
    # case that the added action's own root risk, taken over every model,
    # still sees
    assert not _failing(clean["iap"])
    capital = tolls.robust_capital
    monkeypatch.setattr(
        tolls, "robust_capital",
        lambda amb, *args: capital(AmbiguitySet(amb.models[:1]), *args),
    )
    result = iap_suite(seed=11)
    assert _failing(result) == {"capital-iff-random-families"}
    failures = {p.name: p for p in result.properties}["capital-iff-random-families"].details[
        "failures"
    ]
    assert failures
    assert all(isinstance(f["report"], dict) for f in failures)


def test_negated_shortfall_fails_the_orderings_it_reads(monkeypatch, clean):
    # a conditional_es mapping of flipped sign is no longer monotone, so the
    # orderings that the shortfall properties read reverse, and the engine
    # parts from the oracle's static shortfall; the other mappings keep theirs
    assert not _failing(clean["time-consistency"])
    assert not _failing(clean["cvar-demo"])
    sigma = risk._sigma

    def negated(spec, values, probs):
        value = sigma(spec, values, probs)
        return -value if spec.kind == "conditional_es" else value

    monkeypatch.setattr(risk, "_sigma", negated)
    assert _failing(time_consistency_suite(11)) == {
        "recursive-ordering-implication",
        "comparison-mapping-axioms",
    }
    assert _failing(cvar_demo_suite(11)) == {
        "stagewise-ordering-holds",
        "static-reading-reverses",
        "oracle-agrees-with-static-values",
    }


def test_frozen_continuation_alone_fails_the_hedgeable_variant(monkeypatch, clean):
    # hedging resistance is judged over every continuation of the executed
    # branch; an enumeration that yields only the frozen one never finds the
    # recall that claws the loss back, so the hedgeable variant resists. An
    # empty enumeration reads as a hedge that erases the whole gap, and
    # does not fail the property
    assert not _failing(clean["iap"])
    monkeypatch.setattr(
        tolls, "enumerate_policies",
        lambda model, *args, **kwargs: iter([witnesses._payment_continuation(model)]),
    )
    assert _failing(iap_suite(seed=11)) == {"hedgeable-variant-fails-condition-two"}
    monkeypatch.setattr(tolls, "enumerate_policies", lambda *args, **kwargs: iter(()))
    assert "hedgeable-variant-fails-condition-two" not in _failing(iap_suite(seed=11))


def test_inflated_entropic_mapping_fails_tower_identity(monkeypatch, clean):
    # a relative error of 1e-6 in the engine's entropic mapping, far above
    # the tower identity's tolerance, separates it from the oracle's
    # static log-sum-exp
    assert not _failing(clean["time-consistency"])
    entropic = risk._entropic
    monkeypatch.setattr(
        risk, "_entropic", lambda values, probs, gamma: entropic(values, probs, gamma) * (1 + 1e-6)
    )
    # the scaled mapping also breaks translation invariance and keeps the
    # small-gamma limit away from the expectation
    assert _failing(time_consistency_suite(11)) == {
        "entropic-axioms",
        "entropic-tower-identity",
        "entropic-vanishing-gamma-limit",
    }


def test_drifting_episode_stream_fails_determinism(monkeypatch, clean):
    # a stream that shifts each episode by how often it was asked for samples
    # valid trajectories, so only the rerun comparison can catch it
    assert not _failing(clean["gating"])
    calls = itertools.count()
    stream = gate.uniform_stream
    monkeypatch.setattr(
        gate, "uniform_stream", lambda seed, episode: stream(seed, episode + next(calls))
    )
    assert _failing(gating_suite(11)) == {"episode-determinism"}


def test_static_root_fails_recursive_composition(monkeypatch, clean):
    # a policy valuation whose root is the static shortfall of the terminal
    # law reads the one-shot ordering, which reverses the stagewise one, so
    # the recursive composition is no longer consistent with the stages
    assert not _failing(clean["cvar-demo"])
    valuation = verify.evaluate_policy_risk

    def static_root(model, cont, spec):
        law = {}
        for action, p in cont.action_dist(0, model.initial_state):
            iv = Intervention(0, model.initial_state, action)
            for loss, q in enumerate_terminal_law(model, iv, cont).items():
                law[loss] = law.get(loss, 0.0) + p * q
        return valuation(model, cont, spec)._replace(root=static_risk(law, spec))

    monkeypatch.setattr(verify, "evaluate_policy_risk", static_root)
    assert _failing(cvar_demo_suite(11)) == {"recursive-composition-consistent"}


@pytest.mark.parametrize(
    "kept, failing",
    [
        (
            lambda actions: actions[:2],
            {
                "shipped-witness-binds-capital",
                "riskier-incumbent-leaves-capital-flat",
                "capital-iff-random-families",
            },
        ),
        (
            lambda actions: actions[:-1] or actions,
            {"riskier-incumbent-leaves-capital-flat", "capital-iff-random-families"},
        ),
    ],
    ids=["first-two-actions", "last-action-dropped"],
)
def test_capital_over_too_few_actions_fails_the_capital_properties(
    kept, failing, monkeypatch, clean
):
    # a robust capital that values only part of a granted action set misses
    # the added action that raises it: the shipped witness no longer binds
    # capital, while the riskier incumbent, dropped from the base set, now
    # seems to raise it. A set of one action keeps it, or none is left
    assert not _failing(clean["iap"])
    capital = tolls.robust_capital
    monkeypatch.setattr(
        tolls, "robust_capital",
        lambda amb, time, state, actions, *rest: capital(amb, time, state, kept(actions), *rest),
    )
    assert _failing(iap_suite(seed=11)) == failing
