"""Exact and conformal toll envelopes: ranks, coverage, validity."""

from __future__ import annotations

import json
import math
import random
import sys

import numpy as np
import pytest

from tollgate import envelope
from tollgate.cli import main
from tollgate.envelope import exact_envelope, fit_conformal_envelope, least_squares_predictor
from tollgate.exceptions import CalibrationSizeError, ModelValidationError
from tollgate.instances import scaled_predictor
from tollgate.risk import RiskSpec
from tollgate.scenario import (
    BUNDLED_SCENARIOS,
    bundled_scenario_path,
    feature_vector,
    frozen_rollout_quotes,
    load_scenario,
)
from tollgate.tolls import counterfactual_toll
from tollgate.verify import gating_suite
from tollgate.witnesses import payment_release_witness

ENT = RiskSpec(kind="entropic", gamma=1.0)


def _zero_predictor(time, state, action):
    return 0.0


def test_exact_envelope_clamps_and_matches_tolls():
    case = payment_release_witness()
    model = case.ambiguity.models[0]
    env = exact_envelope(model, case.cont, ENT, case.sdm)
    # risk-reducing action quotes zero
    assert env.query(1, "wired_fraud", "recall") == 0.0
    # the safe default itself quotes zero
    assert env.query(0, "start", "draft_payment") == 0.0
    # the priced action quotes its exact positive toll
    expected = counterfactual_toll(
        model, 0, "start", "wire_transfer", case.cont, ENT, case.sdm
    ).positive_toll
    assert env.query(0, "start", "wire_transfer") == expected
    assert expected > 0.0


def test_conformal_rank_example():
    calib = [((0, "s", "a"), r) for r in (0.1, 0.2, 0.3, 0.4)]
    env = fit_conformal_envelope(_zero_predictor, calib, delta=0.25)
    assert env.quantile_rank == 4
    assert env.inflation == pytest.approx(0.4, abs=1e-12)
    assert env.query(0, "s", "a") == pytest.approx(0.4, abs=1e-12)


def test_conformal_perfect_predictor_zero_inflation():
    calib = [((0, "s", "a"), 0.7)] * 10
    env = fit_conformal_envelope(lambda t, s, a: 0.7, calib, delta=0.3)
    assert env.inflation == 0.0


def test_conformal_small_sample_rejected():
    calib = [((0, "s", "a"), r) for r in (0.1, 0.2, 0.3)]
    with pytest.raises(CalibrationSizeError):
        fit_conformal_envelope(_zero_predictor, calib, delta=0.1)


def test_conformal_degenerate_rank():
    # one sample at half confidence: rank one, margin is that residual
    env = fit_conformal_envelope(_zero_predictor, [((0, "s", "a"), 0.37)], delta=0.5)
    assert env.quantile_rank == 1
    assert env.inflation == pytest.approx(0.37, abs=1e-12)


def test_conformal_delta_domain():
    calib = [((0, "s", "a"), 0.1)] * 20
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ModelValidationError):
            fit_conformal_envelope(_zero_predictor, calib, delta=bad)


def test_negative_margin_clamped():
    # a conservative predictor leaves all residuals negative; the margin
    # clamps at zero rather than deflating the envelope
    calib = [((0, "s", "a"), 0.1)] * 10
    env = fit_conformal_envelope(lambda t, s, a: 0.5, calib, delta=0.2)
    assert env.inflation == 0.0
    assert env.query(0, "s", "a") == 0.5


def test_queries_never_negative():
    env = fit_conformal_envelope(
        lambda t, s, a: -3.0, [((0, "s", "a"), 0.0)] * 10, delta=0.2
    )
    assert env.query(0, "s", "a") == 0.0


def test_inflation_monotone_in_delta():
    rng = random.Random(9)
    calib = [((0, "s", "a"), rng.uniform(0, 1)) for _ in range(60)]
    inflations = [
        fit_conformal_envelope(_zero_predictor, calib, delta=d).inflation
        for d in (0.3, 0.2, 0.1, 0.05)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(inflations, inflations[1:]))


def _coverage(env, points) -> float:
    """The fraction of ``points`` whose true positive toll ``env`` covers."""
    covered = sum(1 for (t, s, a), true in points if true <= env.query(t, s, a) + 1e-12)
    return covered / len(points)


def test_coverage_exact_envelope_is_one():
    case = payment_release_witness()
    model = case.ambiguity.models[0]
    env = exact_envelope(model, case.cont, ENT, case.sdm)
    points = []
    for t, s in model.all_nodes():
        for a in model.actions(t, s):
            true = counterfactual_toll(model, t, s, a, case.cont, ENT, case.sdm).positive_toll
            points.append(((t, s, a), true))
    assert _coverage(env, points) == 1.0


def _pooled_quotes(scenario, episodes, seed):
    return [q for ep in frozen_rollout_quotes(scenario, episodes, seed) for q in ep]


def test_conformal_heldout_coverage():
    sc = load_scenario(bundled_scenario_path("payments"))
    feature = lambda t, s, a: feature_vector(sc, t, s, a)
    train = _pooled_quotes(sc, 100, seed=100)
    predictor = least_squares_predictor(feature, train)
    calib = _pooled_quotes(sc, 100, seed=200)
    env = fit_conformal_envelope(predictor, calib, delta=0.1)
    test = _pooled_quotes(sc, 1000, seed=300)
    assert len(test) >= 2000
    cov = _coverage(env, test)
    sigma = math.sqrt(0.9 * 0.1 / len(test))
    assert cov >= 0.9 - 3 * sigma


def test_split_conformal_marginal_validity_over_resamples():
    # 200 random calibration/test splits of one pooled quote set: the mean
    # coverage stays within two points of the nominal level
    sc = load_scenario(bundled_scenario_path("payments"))
    feature = lambda t, s, a: feature_vector(sc, t, s, a)
    train = _pooled_quotes(sc, 80, seed=400)
    predictor = least_squares_predictor(feature, train)
    pool = _pooled_quotes(sc, 400, seed=500)
    rng = random.Random(77)
    delta = 0.1
    coverages = []
    for _ in range(200):
        drawn = rng.sample(pool, 400)
        env = fit_conformal_envelope(predictor, drawn[:100], delta=delta)
        coverages.append(_coverage(env, drawn[100:]))
    assert sum(coverages) / len(coverages) >= 1 - delta - 0.02


def _numpy_lstsq_predictor(feature, training_set):
    rows = np.asarray([feature(*key) for key, _ in training_set], dtype=float)
    weights, _, rank, _ = np.linalg.lstsq(rows, [y for _, y in training_set], rcond=None)
    return (lambda t, s, a: float(np.dot(feature(t, s, a), weights))), rank


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_least_squares_fit_matches_numpy_on_bundled_training_sets(name):
    # the calibration's training set: 200 frozen rollouts at the scenario
    # seed; its design is rank deficient (the bias column is, for one, the
    # sum of the category one-hots), so only the fitted values are unique
    sc = load_scenario(bundled_scenario_path(name))
    feature = lambda t, s, a: feature_vector(sc, t, s, a)
    train = _pooled_quotes(sc, 200, seed=sc.seed)
    predictor = least_squares_predictor(feature, train)
    reference, rank = _numpy_lstsq_predictor(feature, train)
    assert rank < len(feature(*train[0][0]))
    keys = [(t, s, a) for t, s in sc.model.all_nodes() for a in sc.model.actions(t, s)]
    for key in keys:
        assert abs(predictor(*key) - reference(*key)) <= 1e-12, key


def test_least_squares_gives_a_spanned_column_weight_zero():
    # a duplicated column adds nothing the first copy does not span
    rng = random.Random(19)
    rows = {}
    for i in range(40):
        x = rng.uniform(-2.0, 2.0)
        rows[(i, "s", "a")] = (1.0, x, rng.uniform(0.0, 5.0), x)
    train = [(key, 3.0 * row[1] - row[2] + rng.gauss(0.0, 0.1)) for key, row in rows.items()]
    feature = lambda t, s, a: rows[(t, s, a)]
    predictor = least_squares_predictor(feature, train)
    reference, rank = _numpy_lstsq_predictor(feature, train)
    assert rank == 3
    for key in rows:
        assert abs(predictor(*key) - reference(*key)) <= 1e-12, key
    weights = envelope._least_squares_weights(list(rows.values()), [y for _, y in train])
    assert weights[3] == 0.0
    assert weights[1] == pytest.approx(3.0, abs=0.1)


def test_deflated_envelope_undercovers():
    sc = load_scenario(bundled_scenario_path("payments"))
    feature = lambda t, s, a: feature_vector(sc, t, s, a)
    train = _pooled_quotes(sc, 100, seed=600)
    predictor = least_squares_predictor(feature, train)
    from tollgate.envelope import Envelope

    bad = Envelope(kind="conformal", predict=scaled_predictor(predictor, 0.2),
                   inflation=0.0)
    test = _pooled_quotes(sc, 500, seed=700)
    assert _coverage(bad, test) < 0.9


def _count_exact_envelopes(monkeypatch) -> list:
    """Rebind every package binding of ``exact_envelope`` to a wrapper that
    appends one item to the returned list per envelope built."""
    original = envelope.exact_envelope
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "tollgate" or name.startswith("tollgate."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return built


def test_conformal_run_builds_one_exact_envelope(monkeypatch, tmp_path):
    # calibration prices its rollouts through the run's own exact envelope
    doc = json.loads(bundled_scenario_path("payments").read_text())
    doc["envelope"] = {"kind": "conformal", "calibration_episodes": 20, "training_episodes": 10}
    scenario = tmp_path / "payments-conformal.scn.json"
    scenario.write_text(json.dumps(doc))
    built = _count_exact_envelopes(monkeypatch)
    args = ["run", "--scenario", str(scenario), "--episodes", "5", "--out", str(tmp_path / "o")]
    assert main(args) == 0
    assert len(built) == 1


def test_gating_suite_builds_one_exact_envelope_per_scenario(monkeypatch):
    built = _count_exact_envelopes(monkeypatch)
    gating_suite(1)
    assert len(built) == 3
