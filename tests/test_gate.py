"""Gate mechanics: quoting, fallbacks, charging, episodes, audits."""

from __future__ import annotations

import functools
import math
import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from itertools import islice

import pytest

from tollgate import gate as gate_module
from tollgate.boundary import BoundaryLedger, BoundarySpec, PotentialSpec
from tollgate.cli import main
from tollgate.envelope import Envelope
from tollgate.envmodel import KERNEL_TOL, Policy, SafeDefaultMap, build_model
from tollgate.exceptions import ModelValidationError
from tollgate.oracle import EnumerationBudget, enumerate_gated_paths
from tollgate.risk import RiskSpec
from tollgate.tolls import AmbiguitySet, WitnessSpec
from tollgate.gate import (
    EpisodeLog,
    Gate,
    GateConfig,
    Verdict,
    _inverse_cdf,
    audit_budget_guarantee,
    gate_step,
    run_episode,
    uniform_stream,
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
    assert entry.time == 0


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


@pytest.mark.parametrize(
    "changes",
    [{"initial_budget": -1.0}, {"fallback_order": ()}, {"fallback_order": ("block", "block")}],
    ids=["negative-budget", "empty-order", "repeated-mode"],
)
def test_gate_config_replace_checks_replaced_fields(changes):
    cfg = _cfg(_gate_model(), budget=1.0)
    with pytest.raises(ModelValidationError):
        cfg._replace(**changes)


# Each record that checks its fields, a valid instance of it, a change that
# breaks it, and what its constructor raises for that change.
_CHECKED_RECORDS = {
    "RiskSpec": (lambda: RiskSpec("expectation"), {"kind": "bogus"}, ModelValidationError),
    "EnumerationBudget": (lambda: EnumerationBudget(), {"max_paths": 0}, ModelValidationError),
    "PotentialSpec": (
        lambda: PotentialSpec("power", (0.3,), 2.0), {"exponent": 0.5}, ModelValidationError
    ),
    "BoundarySpec": (
        lambda: BoundarySpec("b", 1, PotentialSpec("linear", (1.0,))), {"dimension": 2},
        ModelValidationError,
    ),
    "AmbiguitySet": (lambda: AmbiguitySet((_gate_model(),)), {"models": ()}, ModelValidationError),
    "WitnessSpec": (
        lambda: WitnessSpec(0, frozenset({"r"}), 1.0, 0.0), {"hedge_allowance": 1.0},
        ModelValidationError,
    ),
    "GateConfig": (
        lambda: _cfg(_gate_model(), budget=1.0), {"initial_budget": -1.0}, ModelValidationError
    ),
}


@pytest.mark.parametrize("name", sorted(_CHECKED_RECORDS))
def test_checked_records_check_every_build(name):
    # _make and _replace build through the constructor, so neither makes a
    # record its constructor refuses
    make, change, error = _CHECKED_RECORDS[name]
    record = make()
    assert type(record)._make(record) == record
    with pytest.raises(error):
        type(record)(**{**record._asdict(), **change})
    with pytest.raises(error):
        record._replace(**change)
    with pytest.raises(error):
        type(record)._make({**record._asdict(), **change}.values())
    with pytest.raises(TypeError):
        type(record)._make(record[:-1])


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
    assert log.entries[-1].budget_after == 3.0


def test_zero_budget_forces_safe_defaults():
    sc = load_scenario(bundled_scenario_path("payments"))
    cfg = sc.gate._replace(initial_budget=0.0)
    gate = Gate(sc.model, sc.policy, cfg)
    logs = [run_episode(gate, seed=9, episode=i) for i in range(40)]
    for log in logs:
        assert log.entries[-1].budget_after == 0.0
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
    yield EpisodeLog(episode, tuple(entries), model.terminal_loss(state), ledger.records)


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
    """The first two payments episodes at seed 123 that commit exposure,
    and their logs."""
    sc = load_scenario(bundled_scenario_path("payments"))
    gate = Gate(sc.model, sc.policy, sc.gate)
    sampled = (run_episode(gate, seed=123, episode=ep) for ep in range(100))
    logs = list(islice((log for log in sampled if log.boundary_records), 2))
    assert len(logs) == 2
    return sc, tuple(log.episode for log in logs), logs


def test_alternated_episodes_from_one_ledger_match_run_episode():
    sc, episodes, expected = _payments_committing_episodes()
    assert _alternated_logs(sc, 123, episodes) == expected


def test_alternated_episodes_catch_commit_that_mutates(monkeypatch):
    # negative control: a commit that grows the ledger it kept from its
    # last call, not the one it is handed, leaks the first episode's
    # exposure into the second
    sc, episodes, expected = _payments_committing_episodes()
    commit = BoundaryLedger.commit
    kept = []

    def commit_kept(self, boundary_id, increment):
        kept.append(commit(kept[-1] if kept else self, boundary_id, increment))
        return kept[-1]

    monkeypatch.setattr(BoundaryLedger, "commit", commit_kept)
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
        payments.model, payments.policy, payments.gate._replace(initial_budget=math.inf)
    )
    inputs["payments-conformal"] = (
        payments.model, payments.policy, payments.gate._replace(envelope=conformal)
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


def _sampling_rows(rng: random.Random) -> list[tuple[tuple[str, float], ...]]:
    """Rows as the loader lets them through: random widths, zero-mass entries
    first, in the middle, last and scattered, one-entry rows, and sums off 1
    by up to KERNEL_TOL. Widths run to 300, so running sums grow long."""
    rows = [(("only", 1.0),)]
    for k in range(600):
        n = rng.randint(1, 6) if k < 400 else rng.randint(7, 300)
        probs = [rng.random() for _ in range(n)]
        if n >= 3:
            probs[rng.choice((0, n // 2, n - 1))] = 0.0
        if n >= 7:
            probs = [0.0 if rng.random() < 0.2 else p for p in probs]
        scale = (1.0 + rng.uniform(-KERNEL_TOL, KERNEL_TOL)) / sum(probs)
        rows.append(tuple((f"x{i}", p * scale) for i, p in enumerate(probs)))
    return rows


def test_inverse_cdf_ends_at_exactly_one():
    rows = _sampling_rows(random.Random(11))
    assert any(len(row) == 1 for row in rows)
    for pos in (0, 1, -1):
        assert any(len(row) >= 3 and row[pos][1] == 0.0 for row in rows)
    assert max(len(row) for row in rows) > 256
    assert any(abs(math.fsum(p for _, p in row) - 1.0) > KERNEL_TOL / 2 for row in rows)
    for row in rows:
        labels, cdf = _inverse_cdf(row)
        assert labels == tuple(label for label, _ in row)
        assert cdf[-1] == 1.0
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))


def test_inverse_cdf_never_draws_a_zero_mass_label():
    # a uniform lies in [0, 1): its ends and every breakpoint of the CDF are
    # the draws most likely to land on a zero-width bin
    for row in _sampling_rows(random.Random(12)):
        _, cdf = _inverse_cdf(row)
        for u in {0.0, math.nextafter(1.0, 0.0), *(c for c in cdf if c < 1.0)}:
            assert row[bisect_right(cdf, u)][1] > 0.0, (row, u)


def test_distinct_seed_episode_pairs_give_distinct_streams():
    # (1, 23) and (12, 3) share the digits of a joined key; the large seeds
    # run past the digit limit of int-to-str conversion
    big = (2**64, 2**200 + 3, 10**5000)
    pairs = {(s, e) for s in range(40) for e in range(40)}
    pairs |= {(1, 23), (12, 3)} | {(s, e) for s in big for e in (0, 1, 7)}
    pairs |= {(e, s) for s, e in pairs}
    firsts = {uniform_stream(s, e)() for s, e in pairs}
    assert len(firsts) == len(pairs)


def test_bool_seed_streams_as_its_int():
    a, b = uniform_stream(True, 0), uniform_stream(1, 0)
    assert [a() for _ in range(8)] == [b() for _ in range(8)]


# 0.999 quantiles of the chi-square law, by degrees of freedom
_CHI2_999 = {7: 24.32, 9: 27.88, 10: 29.59}


def _fidelity_problems(name: str, seed: int = 1, episodes: int = 5000) -> list[str]:
    """Sample ``episodes`` episodes of a bundled scenario and compare their
    paths with the exact law: sampled paths outside the law, a law whose
    mass is not 1, and a chi-square statistic at or above its 0.999
    quantile are problems."""
    sc = load_scenario(bundled_scenario_path(name))
    gate = Gate(sc.model, sc.policy, sc.gate)
    # the law of paths keyed by their (state, proposed) steps and terminal
    # loss, walked through the gate_step imported here: the controls below
    # patch the gate module's, which only the sampler calls
    law: Counter = Counter()
    for p, entries, leaf, _ in enumerate_gated_paths(
        sc.model, sc.policy, gate_step, sc.gate, gate.empty_ledger
    ):
        law[tuple((e.state, e.proposed) for e in entries), sc.model.terminal_loss(leaf)] += p
    counts = Counter(
        (tuple((e.state, e.proposed) for e in log.entries), log.terminal_loss)
        for log in (run_episode(gate, seed, ep) for ep in range(episodes))
    )
    problems = []
    outside = sum(n for path, n in counts.items() if path not in law)
    if outside:
        problems.append(f"{outside} sampled episodes outside the law")
    mass = math.fsum(law.values())
    if not abs(mass - 1.0) <= 1e-12:
        problems.append(f"law mass {mass!r}")
    stat = sum((counts[path] - episodes * p) ** 2 / (episodes * p) for path, p in law.items())
    df = len(law) - 1
    if not stat < _CHI2_999[df]:
        problems.append(f"chi-square {stat:.2f} on {df} degrees of freedom")
    return problems


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_sampled_paths_follow_the_gated_law(name):
    assert _fidelity_problems(name) == []


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_fidelity_catches_rotated_labels(name, monkeypatch):
    # negative control: each drawn bin is read as its neighbour's label
    inverse_cdf = gate_module._inverse_cdf

    def rotated(row):
        labels, cdf = inverse_cdf(row)
        return labels[1:] + labels[:1], cdf

    monkeypatch.setattr(gate_module, "_inverse_cdf", rotated)
    assert _fidelity_problems(name)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_fidelity_catches_transition_from_the_proposed_action(name, monkeypatch):
    # negative control: the sampler moves by the proposed action's kernel,
    # not the executed one's
    step = gate_module.gate_step

    def proposed_moves(*args):
        entry, charged, ledger = step(*args)
        return entry._replace(executed=entry.proposed), charged, ledger

    monkeypatch.setattr(gate_module, "gate_step", proposed_moves)
    assert _fidelity_problems(name)


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
    model = _gate_model()
    with pytest.raises(ModelValidationError, match="non-negative integer"):
        run_episode(Gate(model, Policy({(0, "r"): (("act", 1.0),)}), _cfg(model, 10.0)), seed, episode)


def test_budget_never_negative_and_charges_telescope():
    sc = load_scenario(bundled_scenario_path("payments"))
    gate = Gate(sc.model, sc.policy, sc.gate)
    logs = [run_episode(gate, seed=31, episode=i) for i in range(100)]
    for log in logs:
        prev = sc.gate.initial_budget
        charges = []
        for entry in log.entries:
            assert entry.budget_after >= 0.0
            assert entry.budget_after <= prev + 1e-15
            charges.append(prev - entry.budget_after)
            prev = entry.budget_after
        # replaying the charges reproduces the final budget bit for bit
        budget = sc.gate.initial_budget
        for c in charges:
            budget -= c
        assert budget == log.entries[-1].budget_after
        assert math.fsum(charges) == pytest.approx(
            sc.gate.initial_budget - log.entries[-1].budget_after, abs=1e-12
        )


def test_audit_flags_deflated_envelope():
    sc = load_scenario(bundled_scenario_path("payments"))
    flat = Envelope(kind="conformal", predict=lambda t, s, a: 0.0, inflation=0.0)
    cfg = sc.gate._replace(envelope=flat, initial_budget=5.0)
    gate = Gate(sc.model, sc.policy, cfg)
    logs = [run_episode(gate, seed=77, episode=i) for i in range(150)]
    audit = audit_budget_guarantee(logs, gate, delta=0.1)
    assert audit.violation_fraction > audit.threshold
    assert not audit.passed


def test_audit_exact_envelope_is_clean():
    sc = load_scenario(bundled_scenario_path("trading"))
    gate = Gate(sc.model, sc.policy, sc.gate)
    logs = [run_episode(gate, seed=5, episode=i) for i in range(120)]
    audit = audit_budget_guarantee(logs, gate, delta=0.0)
    assert audit.passed
    assert audit.overruns == 0
    assert audit.violation_fraction == 0.0
    assert audit.accounting_exact
    assert audit.quotes == audit.quotes_covered == sum(len(log.entries) for log in logs)


def test_audit_replays_escalated_and_downgraded_charges():
    # a fast tier that quotes three times the exact toll sends proposals
    # down the chain: approved escalations are charged their exact re-quote,
    # downgrades nothing, and the audit's replay of the gate charges both so
    sc = load_scenario(bundled_scenario_path("payments"))
    truth = sc.gate.exact_quoter.predict
    fast = Envelope(kind="conformal", predict=lambda t, s, a: 3.0 * truth(t, s, a))
    cfg = sc.gate._replace(
        envelope=fast, fallback_order=("escalate", "downgrade", "block"),
        escalation_policy={"default": "approve"},
    )
    gate = Gate(sc.model, sc.policy, cfg)
    logs = [run_episode(gate, seed=3, episode=i) for i in range(200)]
    verdicts = {e.verdict for log in logs for e in log.entries}
    assert {Verdict.ESCALATE_APPROVED, Verdict.DOWNGRADE} <= verdicts
    assert audit_budget_guarantee(logs, gate, delta=0.1).accounting_exact
    # the same logs replayed by a gate whose approved escalations are free
    free = Envelope(kind="exact", predict=lambda t, s, a: 0.0)
    free_gate = Gate(sc.model, sc.policy, cfg._replace(exact_quoter=free))
    assert not audit_budget_guarantee(logs, free_gate, delta=0.1).accounting_exact


def test_audit_asks_the_quoter_once_where_one_answer_serves(monkeypatch):
    # an entry that executes its proposal needs one true toll; a diverted
    # one needs the proposal's and the executed action's; and the episodes
    # whose paths are equal by value are replayed, and need them, once, also
    # where the gate holds two equal paths that end in different leaves
    sc = load_scenario(bundled_scenario_path("payments"))
    truth, calls, steps = sc.gate.exact_quoter.predict, [], []

    def counted(t, s, a):
        calls.append(a)
        return truth(t, s, a)

    # the payments chain never escalates, so only the audit asks the
    # exact quoter, and the gate quotes through its own copy of it
    cfg = sc.gate._replace(
        envelope=Envelope(kind="exact", predict=truth),
        exact_quoter=Envelope(kind="exact", predict=counted),
    )
    gate = Gate(sc.model, sc.policy, cfg)
    # seed 300: one of its ten paths ends in two leaves
    logs = [run_episode(gate, seed=300, episode=i) for i in range(200)]
    assert not calls
    entries = [e for log in logs for e in log.entries]
    diverted = sum(e.executed != e.proposed for e in entries)
    assert 0 < diverted < len(entries)
    paths = {log.entries for log in logs}
    assert len(paths) < len({id(log.entries) for log in logs}) < 20
    step = gate_module.gate_step
    monkeypatch.setattr(gate_module, "gate_step", lambda *args: steps.append(0) or step(*args))
    audit = audit_budget_guarantee(logs, gate, delta=0.0)
    assert audit.passed
    assert len(steps) == sum(map(len, paths))
    assert len(calls) == sum(1 + (e.executed != e.proposed) for path in paths for e in path) == 21


def _shared_and_copied_logs():
    """Payments logs of one Gate, each followed by a copy whose entries are
    another tuple of equal value, and the gate."""
    sc = load_scenario(bundled_scenario_path("payments"))
    gate = Gate(sc.model, sc.policy, sc.gate)
    shared = [run_episode(gate, seed=5, episode=i) for i in range(150)]
    copies = [log._replace(entries=tuple(list(log.entries))) for log in shared]
    return [log for pair in zip(shared, copies) for log in pair], gate


def _counts_every_episode(logs, gate) -> bool:
    """Whether the audit of ``logs`` passes and counts every episode, every
    entry and every verdict."""
    audit = audit_budget_guarantee(logs, gate, delta=0.0)
    entries = [e for log in logs for e in log.entries]
    decisions = {v.value: sum(e.verdict is v for e in entries) for v in Verdict}
    return audit.passed and (audit.episodes, audit.quotes, audit.decisions) == (
        len(logs), len(entries), decisions
    )


def test_audit_counts_and_checks_every_episode_of_a_shared_path(monkeypatch):
    # a path is replayed once per value of its entries, but every episode
    # on it is counted and its terminal loss and boundary records checked,
    # also once the paths outnumber the ones the audit holds
    monkeypatch.setattr(gate_module, "_PATHS_HELD", 2)
    logs, gate = _shared_and_copied_logs()
    assert len({log.entries for log in logs}) > gate_module._PATHS_HELD
    assert _counts_every_episode(logs, gate)
    log = next(log for log in logs if log.boundary_records)
    for bad in (
        log._replace(terminal_loss=log.terminal_loss + 0.25),
        log._replace(boundary_records=log.boundary_records[1:]),
    ):
        assert not audit_budget_guarantee([log, bad], gate, delta=0.0).accounting_exact


def test_audit_that_adds_each_tally_once_undercounts(monkeypatch):
    # negative control: an audit that adds each distinct path tally once,
    # not once per episode that walks a path with it, fails the count
    class OncePerTally(Counter):
        def __setitem__(self, tally, episodes):
            super().__setitem__(tally, min(episodes, 1))

    monkeypatch.setattr(gate_module, "Counter", OncePerTally)
    assert not _counts_every_episode(*_shared_and_copied_logs())


def _payments_log_and_gate():
    sc = load_scenario(bundled_scenario_path("payments"))
    gate = Gate(sc.model, sc.policy, sc.gate)
    log = run_episode(gate, seed=5, episode=0)
    assert audit_budget_guarantee([log], gate, delta=0.0).passed
    return log, gate


def test_audit_fails_nan_quote():
    # negative control: a NaN envelope value covers nothing
    log, gate = _payments_log_and_gate()
    entries = (log.entries[0]._replace(envelope_value=math.nan),) + log.entries[1:]
    audit = audit_budget_guarantee([log._replace(entries=entries)], gate, delta=0.0)
    assert audit.quotes_covered == audit.quotes - 1
    assert not audit.passed


def test_audit_fails_nan_true_toll():
    # negative control: a NaN true toll on an executed proposal is neither
    # covered nor within the budget
    log, gate = _payments_log_and_gate()
    entry = next(e for e in log.entries if e.verdict is Verdict.EXECUTE)
    key = (entry.time, entry.state, entry.proposed)
    truth = gate.cfg.exact_quoter.predict
    nan_quoter = Envelope(
        kind="exact", predict=lambda t, s, a: math.nan if (t, s, a) == key else truth(t, s, a)
    )
    gate = Gate(gate.model, gate.policy, gate.cfg._replace(exact_quoter=nan_quoter))
    audit = audit_budget_guarantee([log], gate, delta=0.0)
    assert audit.quotes_covered < audit.quotes
    assert audit.overruns == 1
    assert not audit.passed
