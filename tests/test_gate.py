"""Gate mechanics: quoting, fallbacks, charging, episodes, audits."""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from tollgate import gate as gate_module
from tollgate._stream import uniform_stream
from tollgate.boundary import BoundaryLedger, BoundarySpec, PotentialSpec
from tollgate.cli import main
from tollgate.envelope import Envelope
from tollgate.envmodel import KERNEL_TOL, Policy, SafeDefaultMap, build_model
from tollgate.exceptions import ModelValidationError
from tollgate.gate import (
    EpisodeLog,
    Gate,
    GateConfig,
    Verdict,
    _inverse_cdf,
    audit_budget_guarantee,
    gate_step,
    run_episode,
)
from tollgate.runio import episode_json_lines
from tollgate.scenario import (
    BUNDLED_SCENARIOS,
    bundled_scenario_path,
    calibrate_conformal,
    load_scenario,
    resolve_scenario,
)


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
    entry, charged, _ = gate_step(10.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act", {})
    assert entry.verdict is Verdict.EXECUTE
    assert charged == 4.0
    assert entry.budget_after == 6.0
    assert entry.step == entry.time == 0


def test_unaffordable_quote_downgrades_uncharged():
    model = _gate_model()
    cfg = _cfg(model, budget=10.0, fallback=("downgrade",), quotes={"act": 12.0})
    entry, charged, _ = gate_step(10.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act", {})
    assert entry.verdict is Verdict.DOWNGRADE
    assert entry.executed == "mild"
    assert charged == 0.0
    assert entry.budget_after == 10.0


def test_boundary_inequality_is_nonstrict():
    model = _gate_model()
    cfg = _cfg(model, budget=0.0, quotes={"act": 0.0})
    entry, charged, _ = gate_step(0.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act", {})
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
    entry, charged, _ = gate_step(1.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act", {})
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
    entry, charged, _ = gate_step(1.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act", {})
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
    entry, charged, _ = gate_step(1.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act", {})
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
    entry, charged, _ = gate_step(1.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act", {})
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
    entry, charged, _ = gate_step(1.0, cfg, model, BoundaryLedger.empty(()), 0, "r", "act", {})
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
    entry, charged, ledger = gate_step(10.0, cfg, model, empty, 0, "r", "act", {})
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
    entry, charged, after = gate_step(0.5, tight, model, ledger, 0, "r", "act", {})
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
    log = run_episode(Gate(coin_model, cont, cfg), seed=1, episode=0)
    assert all(e.verdict is Verdict.EXECUTE for e in log.entries)
    assert log.budget_final == 3.0


def test_zero_budget_forces_safe_defaults():
    sc = load_scenario(bundled_scenario_path("payments"))
    cfg = dataclasses.replace(sc.gate, initial_budget=0.0)
    gate = Gate(sc.model, sc.policy, cfg)
    logs = [run_episode(gate, seed=9, episode=i) for i in range(40)]
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
    logs_a, logs_b = (
        [run_episode(Gate(sc.model, sc.policy, sc.gate), seed=123, episode=i) for i in range(30)]
        for _ in range(2)
    )
    assert episode_json_lines(logs_a) == episode_json_lines(logs_b)


def _stepped_episode(model, policy, cfg, seed: int, episode: int, ledger: BoundaryLedger):
    """``run_episode``'s fold from ``ledger``, with no memo: every step is
    decided afresh. Yields ``None`` after each gate step and the episode's
    log last."""
    uniform = uniform_stream(seed, episode)
    budget, state, entries = cfg.initial_budget, model.initial_state, []
    for t in range(model.horizon):
        actions, cdf = _inverse_cdf(policy.action_dist(t, state))
        proposed = actions[bisect_right(cdf, uniform())]
        entry, charged, ledger = gate_step(budget, cfg, model, ledger, t, state, proposed, {})
        budget -= charged
        entries.append(entry)
        targets, cdf = _inverse_cdf(model.kernel(t, state, entry.executed))
        state = targets[bisect_right(cdf, uniform())]
        yield None
    yield EpisodeLog(
        episode, tuple(entries), model.terminal_loss(state), cfg.initial_budget, budget,
        ledger.records,
    )


def _alternated_logs(sc, seed: int, episodes) -> list:
    """Logs of ``episodes`` stepped alternately from one shared empty
    ledger. ``zip`` draws from each episode in turn, one gate step at a
    time; every episode lasts the model's horizon, so the last round holds
    the logs."""
    shared = BoundaryLedger.empty(sc.gate.boundaries)
    steps = (_stepped_episode(sc.model, sc.policy, sc.gate, seed, ep, shared) for ep in episodes)
    *_, logs = zip(*steps)
    return list(logs)


def _payments_committing_episodes():
    sc = load_scenario(bundled_scenario_path("payments"))
    episodes = (1, 2)
    gate = Gate(sc.model, sc.policy, sc.gate)
    logs = [run_episode(gate, seed=123, episode=i) for i in episodes]
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


def _layered_document(horizon: int = 3, width: int = 8, seed: int = 4) -> dict:
    """A scenario in the shape of the benchmark's ladder: a layered model
    whose kernels overlap, so several prefixes reach each ``(time, state)``
    with different budgets and ledgers. Risky actions drift toward costly
    leaves and carry boundary exposure, and the budget is tight enough that
    some steps downgrade."""
    rng = random.Random(seed)
    actions, support = ("noop", "safe", "risk_a", "risk_b"), 4
    drift = {"noop": 0.0, "safe": -0.15, "risk_a": 0.2, "risk_b": 0.35}
    layers = [["s0"]] + [[f"s{t}_{i}" for i in range(width)] for t in range(1, horizon)]
    layers.append([f"leaf_{i}" for i in range(width)])

    def row(labels):
        raw = [rng.random() + 0.05 for _ in labels]
        return {label: p / sum(raw) for label, p in zip(labels, raw)}

    nodes, policy, safe_defaults = [], [], []
    for t in range(horizon):
        for i, sid in enumerate(layers[t]):
            base = i if t else width / 2
            node = {}
            for a in actions:
                lo = min(max(round(base + drift[a] * width) - support // 2, 0), width - support)
                node[a] = {"kernel": row(layers[t + 1][lo : lo + support])}
                if a != "noop":
                    safe_defaults.append({"time": t, "state": sid, "action": a, "default": "safe"})
                if a.startswith("risk"):
                    node[a]["exposure"] = {"desk": [1.0]}
            nodes.append({"time": t, "state": sid, "actions": node})
            policy.append({"time": t, "state": sid, "probs": row(actions)})
    states = [
        {"id": sid, "components": {"zone": int(2 * i >= width)}}
        for layer in layers for i, sid in enumerate(layer)
    ]
    return {
        "schema_version": 1,
        "name": "layered",
        "model": {
            "horizon": horizon,
            "components": [{"name": "zone", "external": True}],
            "states": states,
            "initial_state": "s0",
            "null_action": "noop",
            "nodes": nodes,
            "terminal_losses": {
                f"leaf_{i}": 10.0 * (i / (width - 1)) ** 2 + rng.uniform(0.0, 0.5)
                for i in range(width)
            },
        },
        "safe_defaults": safe_defaults,
        "policy": policy,
        "risk": {"kind": "entropic", "gamma": 0.5},
        "boundaries": [{
            "id": "desk", "dimension": 1, "potential": {"kind": "linear", "weights": [0.5]},
            "outside_state": "desk=synthetic",
        }],
        "gate": {"initial_budget": 1.2 * horizon, "fallback_order": ["downgrade", "block"]},
        "envelope": {"kind": "exact"},
    }


_MEMO_INPUTS = (*BUNDLED_SCENARIOS, "payments-unbounded", "payments-conformal", "layered")


@functools.cache
def _memo_inputs() -> dict:
    """The (model, policy, gate config) triples of ``_MEMO_INPUTS``, which
    the memo must not change: the bundled scenarios, an unbounded payments
    budget, a conformal payments gate and the layered model."""
    payments = load_scenario(bundled_scenario_path("payments"))
    conformal, _ = calibrate_conformal(payments, 60, 0.1, seed=5, training_episodes=30)
    inputs = {
        name: (sc.model, sc.policy, sc.gate)
        for name in BUNDLED_SCENARIOS
        for sc in [load_scenario(bundled_scenario_path(name))]
    }
    inputs["payments-unbounded"] = (
        payments.model, payments.policy, dataclasses.replace(payments.gate, initial_budget=math.inf)
    )
    inputs["payments-conformal"] = (
        payments.model, payments.policy, dataclasses.replace(payments.gate, envelope=conformal)
    )
    layered = resolve_scenario(_layered_document())
    inputs["layered"] = (layered.model, layered.policy, layered.gate)
    assert sorted(inputs) == sorted(_MEMO_INPUTS)
    return inputs


def _memo_check(model, policy, cfg, seed: int, episodes: int = 300) -> int:
    """How many of ``episodes`` episodes sampled through one shared Gate
    differ from the unmemoised fold, by value or by their logged lines."""
    gate = Gate(model, policy, cfg)
    empty = BoundaryLedger.empty(cfg.boundaries)
    wrong = 0
    for ep in range(episodes):
        log = run_episode(gate, seed, ep)
        *_, expected = _stepped_episode(model, policy, cfg, seed, ep, empty)
        wrong += log != expected or episode_json_lines([log]) != episode_json_lines([expected])
    return wrong


@pytest.mark.parametrize("seed", [1, 301])
@pytest.mark.parametrize("name", _MEMO_INPUTS)
def test_shared_gate_matches_the_unmemoised_fold(name, seed):
    assert _memo_check(*_memo_inputs()[name], seed) == 0


def test_shared_gate_shares_one_outcome_per_path():
    model, policy, cfg = _memo_inputs()["payments"]
    gate = Gate(model, policy, cfg)
    logs = [run_episode(gate, 1, ep) for ep in range(300)]
    paths = {id(log.entries): log for log in logs}
    assert len(paths) < 20
    for log in logs:
        assert log.boundary_records is paths[id(log.entries)].boundary_records


def test_layered_model_fills_the_trie():
    # so the equivalence above also covers episodes that walk past the
    # prefixes a gate holds and decide afresh
    model, policy, cfg = _memo_inputs()["layered"]
    gate = Gate(model, policy, cfg)
    for ep in range(300):
        run_episode(gate, 1, ep)
    assert gate.prefixes == gate_module._PREFIXES_HELD


def test_memo_keyed_on_the_node_alone_is_caught(monkeypatch):
    # negative control: a memo keyed on (time, state, proposed) hands a
    # decision made under one prefix's budget and ledger to another prefix
    # that reaches the same node. The bundled models name their path in
    # their states, so only the layered model can catch it.
    by_node: dict = {}
    step = gate_module.gate_step

    def node_memo(budget, cfg, model, ledger, time, state, proposed, node):
        memo = by_node.setdefault((time, state), {})
        return step(budget, cfg, model, ledger, time, state, proposed, memo)

    monkeypatch.setattr(gate_module, "gate_step", node_memo)
    assert _memo_check(*_memo_inputs()["layered"], seed=1) > 0


def test_run_calls_gate_step_once_per_logged_entry(tmp_path, monkeypatch):
    calls = []
    step = gate_module.gate_step

    def counted(*args):
        calls.append(args[-2])  # the proposal
        return step(*args)

    monkeypatch.setattr(gate_module, "gate_step", counted)
    out = tmp_path / "run"
    assert main(["run", "--scenario", "payments", "--episodes", "20", "--out", str(out)]) == 0
    lines = (out / "episodes.jsonl").read_text().splitlines()
    assert len(calls) == len(lines) > 20


def test_sampling_through_one_gate_retains_little():
    # 5,000 database episodes walk 10 paths, so the logs share 10 entry
    # tuples and the trie holds 23 prefixes
    sc = load_scenario(bundled_scenario_path("database"))
    warm = Gate(sc.model, sc.policy, sc.gate)
    for ep in range(200):  # price every key the run quotes before measuring
        run_episode(warm, 1, ep)
    tracemalloc.start()
    try:
        gate = Gate(sc.model, sc.policy, sc.gate)
        logs = [run_episode(gate, 1, ep) for ep in range(5000)]
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(logs) == 5000
    assert retained < 1.5e6


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
        run_episode(Gate(model, Policy({(0, "r"): (("act", 1.0),)}), _cfg(model, 10.0)), seed, episode)


def test_budget_never_negative_and_charges_telescope():
    sc = load_scenario(bundled_scenario_path("payments"))
    gate = Gate(sc.model, sc.policy, sc.gate)
    logs = [run_episode(gate, seed=31, episode=i) for i in range(100)]
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
    gate = Gate(sc.model, sc.policy, cfg)
    logs = [run_episode(gate, seed=77, episode=i) for i in range(150)]
    audit = audit_budget_guarantee(logs, truth, delta=0.1)
    assert audit.violation_fraction > audit.threshold
    assert not audit.passed


def test_audit_exact_envelope_is_clean():
    sc = load_scenario(bundled_scenario_path("trading"))
    gate = Gate(sc.model, sc.policy, sc.gate)
    logs = [run_episode(gate, seed=5, episode=i) for i in range(120)]
    audit = audit_budget_guarantee(logs, sc.gate.exact_quoter.predict, delta=0.0)
    assert audit.passed
    assert audit.overruns == 0
    assert audit.violation_fraction == 0.0
    assert audit.accounting_exact
    assert audit.quotes == audit.quotes_covered == sum(len(log.entries) for log in logs)


def _payments_log_and_truth():
    sc = load_scenario(bundled_scenario_path("payments"))
    log = run_episode(Gate(sc.model, sc.policy, sc.gate), seed=5, episode=0)
    truth = sc.gate.exact_quoter.predict
    assert audit_budget_guarantee([log], truth, delta=0.0).passed
    return log, truth


def test_audit_fails_nan_quote():
    # negative control: a NaN envelope value covers nothing
    log, truth = _payments_log_and_truth()
    entries = (log.entries[0]._replace(envelope_value=math.nan),) + log.entries[1:]
    audit = audit_budget_guarantee([log._replace(entries=entries)], truth, delta=0.0)
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
