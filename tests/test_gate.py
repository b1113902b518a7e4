"""Gate mechanics: quoting, fallbacks, charging, episodes, audits."""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right

import numpy as np
import pytest

from tollgate._stream import uniform_stream
from tollgate.boundary import BoundaryLedger, BoundarySpec, PotentialSpec
from tollgate.envelope import Envelope
from tollgate.envmodel import KERNEL_TOL, Policy, SafeDefaultMap, build_model
from tollgate.exceptions import ModelValidationError
from tollgate.gate import (
    EpisodeLog,
    GateConfig,
    Verdict,
    _inverse_cdf,
    audit_budget_guarantee,
    gate_step,
    run_episode,
)
from tollgate.runio import episode_json_lines
from tollgate.scenario import bundled_scenario_path, load_scenario


def _gate_model():
    return build_model(
        {
            "horizon": 1,
            "components": [{"name": "x", "external": True}],
            "states": [
                {"id": "r", "components": {"x": 0}},
                {"id": "done", "components": {"x": 1}},
                {"id": "skipped", "components": {"x": 0}},
            ],
            "initial_state": "r",
            "nodes": [
                {"time": 0, "state": "r", "actions": {
                    "act": {"kernel": {"done": 1.0}},
                    "mild": {"kernel": {"done": 1.0}},
                    "noop": {"kernel": {"skipped": 1.0}},
                }},
            ],
            "terminal_losses": {"done": 1.0, "skipped": 0.0},
        }
    )


def _quoted(values: dict[str, float]) -> Envelope:
    return Envelope(kind="exact", predict=lambda t, s, a: values.get(a, 0.0))


def _cfg(model, budget, fallback=("downgrade", "block"), quotes=None, **kw) -> GateConfig:
    envelope = _quoted(quotes if quotes is not None else {})
    kw.setdefault("exact_quoter", envelope)
    return GateConfig(
        initial_budget=budget,
        fallback_order=tuple(fallback),
        envelope=envelope,
        safe_defaults=SafeDefaultMap.from_entries({(0, "r", "act"): "mild"}, model),
        **kw,
    )


def test_affordable_quote_executes():
    model = _gate_model()
    cfg = _cfg(model, budget=10.0, quotes={"act": 4.0})
    entry, charged, _ = gate_step(10.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act")
    assert entry.verdict is Verdict.EXECUTE
    assert charged == 4.0
    assert entry.budget_after == 6.0
    assert entry.step == entry.time == 0


def test_unaffordable_quote_downgrades_uncharged():
    model = _gate_model()
    cfg = _cfg(model, budget=10.0, fallback=("downgrade",), quotes={"act": 12.0})
    entry, charged, _ = gate_step(10.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act")
    assert entry.verdict is Verdict.DOWNGRADE
    assert entry.executed == "mild"
    assert charged == 0.0
    assert entry.budget_after == 10.0


def test_boundary_inequality_is_nonstrict():
    model = _gate_model()
    cfg = _cfg(model, budget=0.0, quotes={"act": 0.0})
    entry, charged, _ = gate_step(0.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act")
    assert entry.verdict is Verdict.EXECUTE
    assert entry.budget_after == 0.0


def test_escalation_approved_requotes_at_exact_tier():
    model = _gate_model()
    cfg = _cfg(
        model, budget=1.0, fallback=("escalate", "block"),
        quotes={"act": 1.5},  # fast tier overshoots
        escalation_policy={"act": "approve"},
        exact_quoter=_quoted({"act": 0.5}),  # deep tier fits
    )
    entry, charged, _ = gate_step(1.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act")
    assert entry.verdict is Verdict.ESCALATE_APPROVED
    assert entry.executed == "act"
    assert charged == 0.5
    assert entry.budget_after == 0.5


def test_escalation_approved_still_needs_budget():
    model = _gate_model()
    cfg = _cfg(
        model, budget=1.0, fallback=("escalate", "block"),
        quotes={"act": 1.5},
        escalation_policy={"act": "approve"},
        exact_quoter=_quoted({"act": 1.2}),  # refined quote still too big
    )
    entry, charged, _ = gate_step(1.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act")
    assert entry.verdict is Verdict.BLOCK
    assert entry.executed == "noop"
    assert charged == 0.0


def test_escalation_denied_blocks_with_provenance():
    model = _gate_model()
    cfg = _cfg(
        model, budget=1.0, fallback=("escalate",),
        quotes={"act": 1.5},
        escalation_policy={"default": "deny"},
    )
    entry, charged, _ = gate_step(1.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act")
    assert entry.verdict is Verdict.ESCALATE_DENIED
    assert entry.executed == "noop"
    assert charged == 0.0
    assert entry.budget_after == 1.0


def test_exhausted_chain_blocks_implicitly():
    model = _gate_model()
    cfg = _cfg(
        model, budget=1.0, fallback=("downgrade",),
        quotes={"act": 5.0, "mild": 5.0},  # even the fallback is unaffordable
    )
    entry, charged, _ = gate_step(1.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act")
    assert entry.verdict is Verdict.BLOCK
    assert entry.executed == "noop"


def test_unavailable_safe_default_falls_through():
    model = _gate_model()
    cfg = GateConfig(
        initial_budget=1.0,
        fallback_order=("downgrade", "block"),
        envelope=_quoted({"act": 5.0}),
        safe_defaults=SafeDefaultMap({(0, "r", "act"): "ghost"}),  # not an action
        exact_quoter=_quoted({"act": 5.0}),
    )
    entry, charged, _ = gate_step(1.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act")
    assert entry.verdict is Verdict.BLOCK


def test_gate_config_validation():
    model = _gate_model()
    with pytest.raises(ModelValidationError):
        _cfg(model, budget=-1.0)
    with pytest.raises(ModelValidationError):
        _cfg(model, budget=1.0, fallback=())
    with pytest.raises(ModelValidationError):
        _cfg(model, budget=1.0, fallback=("downgrade", "downgrade"))
    with pytest.raises(ModelValidationError):
        _cfg(model, budget=1.0, fallback=("retry",))


def test_boundary_increment_committed_atomically():
    model = _gate_model()
    spec = BoundarySpec("b", 1, PotentialSpec(kind="linear", weights=(1.0,)))
    empty = BoundaryLedger.empty([spec])
    cfg = _cfg(
        model, budget=10.0, quotes={"act": 1.0},
        boundaries=(spec,),
        exposure={(0, "r", "act"): {"b": (2.5,)}},
    )
    entry, charged, ledger = gate_step(10.0, cfg, model, empty, 0, "r", "act")
    assert entry.verdict is Verdict.EXECUTE
    assert ledger.exposures == ((2.5,),)
    assert entry.boundary_version == 1
    assert empty.exposures == ((0.0,),)
    # a downgraded proposal executes the default, which carries no exposure,
    # so the boundary version stays put
    tight = _cfg(
        model, budget=0.5, quotes={"act": 1.0},
        boundaries=(spec,),
        exposure={(0, "r", "act"): {"b": (2.5,)}},
    )
    entry, charged, after = gate_step(0.5, tight, model, ledger, 0, "r", "act")
    assert entry.verdict is Verdict.DOWNGRADE
    assert after.exposures == ((2.5,),)
    assert entry.boundary_version == 1


def test_zero_toll_scenario_executes_everything(coin_model, noop_policy):
    cont = noop_policy(coin_model)
    env = Envelope(kind="exact", predict=lambda t, s, a: 0.0)
    cfg = GateConfig(
        initial_budget=3.0,
        fallback_order=("downgrade", "block"),
        envelope=env,
        safe_defaults=SafeDefaultMap({}),
        exact_quoter=env,
    )
    log = run_episode(coin_model, cont, cfg, seed=1, episode=0)
    assert all(e.verdict is Verdict.EXECUTE for e in log.entries)
    assert log.budget_final == 3.0


def test_zero_budget_forces_safe_defaults():
    sc = load_scenario(bundled_scenario_path("payments"))
    cfg = dataclasses.replace(sc.gate, initial_budget=0.0)
    logs = [run_episode(sc.model, sc.policy, cfg, seed=9, episode=i) for i in range(40)]
    for log in logs:
        assert log.budget_final == 0.0
        for entry in log.entries:
            if entry.envelope_value > 0.0:
                assert entry.verdict is not Verdict.EXECUTE
                assert entry.executed == sc.safe_defaults.default_for(
                    entry.time, entry.state, entry.proposed
                ) or entry.executed == sc.model.null_action


def test_episode_rerun_is_bit_identical():
    sc = load_scenario(bundled_scenario_path("payments"))
    logs_a = [run_episode(sc.model, sc.policy, sc.gate, seed=123, episode=i) for i in range(30)]
    logs_b = [run_episode(sc.model, sc.policy, sc.gate, seed=123, episode=i) for i in range(30)]
    assert episode_json_lines(logs_a) == episode_json_lines(logs_b)


def _stepped_episode(sc, seed: int, episode: int, ledger: BoundaryLedger):
    """``run_episode``'s fold from ``ledger``, yielding ``None`` after each
    gate step and the episode's log last."""
    uniform = uniform_stream(seed, episode)
    budget, state, entries = sc.gate.initial_budget, sc.model.initial_state, []
    for t in range(sc.model.horizon):
        actions, cdf = _inverse_cdf(sc.policy.action_dist(t, state))
        proposed = actions[bisect_right(cdf, uniform())]
        entry, charged, ledger = gate_step(budget, sc.gate, sc.model, ledger, t, state, proposed)
        budget -= charged
        entries.append(entry)
        targets, cdf = _inverse_cdf(sc.model.kernel(t, state, entry.executed))
        state = targets[bisect_right(cdf, uniform())]
        yield None
    yield EpisodeLog(
        episode, tuple(entries), sc.model.terminal_loss(state), sc.gate.initial_budget,
        budget, ledger.records,
    )


def _alternated_logs(sc, seed: int, episodes) -> list:
    """Logs of ``episodes`` stepped alternately from one shared empty
    ledger. ``zip`` draws from each episode in turn, one gate step at a
    time; every episode lasts the model's horizon, so the last round holds
    the logs."""
    shared = BoundaryLedger.empty(sc.gate.boundaries)
    *_, logs = zip(*(_stepped_episode(sc, seed, ep, shared) for ep in episodes))
    return list(logs)


def _payments_committing_episodes():
    sc = load_scenario(bundled_scenario_path("payments"))
    episodes = (1, 2)
    logs = [run_episode(sc.model, sc.policy, sc.gate, seed=123, episode=i) for i in episodes]
    assert all(log.boundary_records for log in logs)  # both episodes commit exposure
    return sc, episodes, logs


def test_alternated_episodes_from_one_ledger_match_run_episode():
    sc, episodes, expected = _payments_committing_episodes()
    assert _alternated_logs(sc, 123, episodes) == expected


def test_alternated_episodes_catch_commit_that_mutates(monkeypatch):
    # negative control: a commit that grows the ledger it is handed and
    # returns it leaks the first episode's exposure into the second
    sc, episodes, expected = _payments_committing_episodes()
    commit = BoundaryLedger.commit

    def commit_in_place(self, boundary_id, increment):
        grown = commit(self, boundary_id, increment)
        for name in ("exposures", "versions", "records"):
            object.__setattr__(self, name, getattr(grown, name))
        return self

    monkeypatch.setattr(BoundaryLedger, "commit", commit_in_place)
    assert _alternated_logs(sc, 123, episodes) != expected


def _sampling_rows(rng: np.random.Generator) -> list[tuple[tuple[str, float], ...]]:
    """Rows as the loader lets them through: random widths, zero-mass entries
    first, in the middle, last and scattered, one-entry rows, and sums off 1
    by up to KERNEL_TOL. Widths run to 300, past the 8-element and
    128-element steps of a pairwise sum."""
    rows = [(("only", 1.0),)]
    for k in range(600):
        n = int(rng.integers(1, 7)) if k < 400 else int(rng.integers(7, 301))
        probs = rng.random(n)
        if n >= 3:
            probs[rng.choice((0, n // 2, n - 1))] = 0.0
        if n >= 7:
            probs[rng.random(n) < 0.2] = 0.0
        probs = probs / probs.sum() * (1.0 + rng.uniform(-KERNEL_TOL, KERNEL_TOL))
        rows.append(tuple((f"x{i}", float(p)) for i, p in enumerate(probs)))
    return rows


def test_sampler_draws_exactly_as_generator_choice():
    rows = _sampling_rows(np.random.default_rng(11))
    assert any(len(row) == 1 for row in rows)
    for pos in (0, 1, -1):
        assert any(len(row) >= 3 and row[pos][1] == 0.0 for row in rows)
    assert max(len(row) for row in rows) > 256
    seq = np.random.SeedSequence([5, 3])
    old, new = np.random.default_rng(seq), np.random.default_rng(seq)
    for k in range(6000):
        row = rows[k % len(rows)]
        probs = np.asarray([p for _, p in row])
        expected = int(old.choice(len(row), p=probs / probs.sum()))
        labels, cdf = _inverse_cdf(row)
        assert bisect_right(cdf, new.random()) == expected
        assert labels == tuple(label for label, _ in row)
    assert old.random() == new.random()


def test_inverse_cdf_matches_numpy_cumsum():
    # element for element: the pairwise sum, the division and the running
    # sum must all round as numpy's do, not just land in the same bin
    for row in _sampling_rows(np.random.default_rng(12)):
        probs = np.asarray([p for _, p in row])
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        assert _inverse_cdf(row)[1] == tuple(cdf.tolist())


@pytest.mark.parametrize(
    "row",
    [
        (("act", float("nan")), ("noop", 1.0)),
        (("act", -0.5), ("noop", 1.5)),
        (("act", float("inf")), ("noop", 0.0)),
        (("act", 0.0), ("noop", 0.0)),
        (),
    ],
    ids=["nan", "negative", "inf", "zero-mass", "empty"],
)
def test_run_episode_refuses_invalid_policy_row(row):
    # the row is refused when the policy is built, so no episode samples it
    with pytest.raises(ModelValidationError):
        Policy({(0, "r"): row})


@pytest.mark.parametrize("seed, episode", [(-1, 0), (0, -1), (-(2**40), 3)])
def test_run_episode_refuses_negative_seed_or_episode(seed, episode):
    # numpy's SeedSequence refuses these with a bare ValueError
    model = _gate_model()
    with pytest.raises(ModelValidationError, match="non-negative integer"):
        run_episode(model, Policy({(0, "r"): (("act", 1.0),)}), _cfg(model, 10.0), seed, episode)


def test_budget_never_negative_and_charges_telescope():
    sc = load_scenario(bundled_scenario_path("payments"))
    logs = [run_episode(sc.model, sc.policy, sc.gate, seed=31, episode=i) for i in range(100)]
    for log in logs:
        prev = log.budget_initial
        charges = []
        for entry in log.entries:
            assert entry.budget_after >= 0.0
            assert entry.budget_after <= prev + 1e-15
            charges.append(prev - entry.budget_after)
            prev = entry.budget_after
        # replaying the charges reproduces the final budget bit for bit
        budget = log.budget_initial
        for c in charges:
            budget -= c
        assert budget == log.budget_final
        assert math.fsum(charges) == pytest.approx(
            log.budget_initial - log.budget_final, abs=1e-12
        )


def test_audit_flags_deflated_envelope():
    sc = load_scenario(bundled_scenario_path("payments"))
    truth = sc.gate.exact_quoter.predict
    flat = Envelope(kind="conformal", predict=lambda t, s, a: 0.0, inflation=0.0)
    cfg = dataclasses.replace(sc.gate, envelope=flat, initial_budget=5.0)
    logs = [run_episode(sc.model, sc.policy, cfg, seed=77, episode=i) for i in range(150)]
    audit = audit_budget_guarantee(logs, truth, delta=0.1)
    assert audit.violation_fraction > audit.threshold
    assert not audit.passed


def test_audit_exact_envelope_is_clean():
    sc = load_scenario(bundled_scenario_path("trading"))
    logs = [run_episode(sc.model, sc.policy, sc.gate, seed=5, episode=i) for i in range(120)]
    audit = audit_budget_guarantee(logs, sc.gate.exact_quoter.predict, delta=0.0)
    assert audit.passed
    assert audit.overruns == 0
    assert audit.violation_fraction == 0.0
    assert audit.accounting_exact
    assert audit.quotes == audit.quotes_covered == sum(len(log.entries) for log in logs)


def _payments_log_and_truth():
    sc = load_scenario(bundled_scenario_path("payments"))
    log = run_episode(sc.model, sc.policy, sc.gate, seed=5, episode=0)
    truth = sc.gate.exact_quoter.predict
    assert audit_budget_guarantee([log], truth, delta=0.0).passed
    return log, truth


def test_audit_fails_nan_quote():
    # negative control: a NaN envelope value covers nothing
    log, truth = _payments_log_and_truth()
    entries = (log.entries[0]._replace(envelope_value=math.nan),) + log.entries[1:]
    audit = audit_budget_guarantee([dataclasses.replace(log, entries=entries)], truth, delta=0.0)
    assert audit.quotes_covered == audit.quotes - 1
    assert not audit.passed


def test_audit_fails_nan_true_toll():
    # negative control: a NaN true toll on an executed proposal is neither
    # covered nor within the budget
    log, truth = _payments_log_and_truth()
    entry = next(e for e in log.entries if e.verdict is Verdict.EXECUTE)
    key = (entry.time, entry.state, entry.proposed)
    audit = audit_budget_guarantee(
        [log], lambda t, s, a: math.nan if (t, s, a) == key else truth(t, s, a), delta=0.0
    )
    assert audit.quotes_covered < audit.quotes
    assert audit.overruns == 1
    assert not audit.passed
