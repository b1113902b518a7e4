"""Conservative upper envelopes on positive tolls.

Two tiers are supported. The exact envelope is the deep-simulation tier: it
prices each query through the toll engine and is therefore a sure upper
bound (equality) on the charge. The conformal envelope is the fast tier: a
base predictor plus a one-sided split-conformal margin calibrated so that,
under exchangeable calibration and evaluation, the true positive toll stays
at or below the quoted value with the requested probability. Envelope
queries are pure, immutable after fitting, and never negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .envmodel import EnvironmentModel, Policy, SafeDefaultMap
from .exceptions import CalibrationSizeError, ModelValidationError
from .risk import PolicyValues, RiskSpec
from .tolls import counterfactual_toll

Predictor = Callable[[int, str, str], float]


@dataclass(frozen=True)
class Envelope:
    """Nonnegative upper bound c(time, state, action) on the positive toll."""

    kind: str  # "exact" | "conformal"
    predict: Predictor
    inflation: float = 0.0
    calibration_meta: dict = field(default_factory=dict)

    def query(self, time: int, state: str, action: str) -> float:
        return max(self.predict(time, state, action) + self.inflation, 0.0)


def exact_envelope(
    model: EnvironmentModel,
    cont: Policy,
    spec: RiskSpec,
    sdm: SafeDefaultMap,
) -> Envelope:
    """Envelope whose every query is the exact positive toll.

    Every key is priced once, off one shared :class:`PolicyValues`: a cold
    key costs two one-step valuations plus the continuation nodes no earlier
    key reached.
    """
    values = PolicyValues(model, cont, spec)
    cache: dict[tuple[int, str, str], float] = {}

    def predict(time: int, state: str, action: str) -> float:
        key = (time, state, action)
        if key not in cache:
            cache[key] = counterfactual_toll(
                model, time, state, action, cont, spec, sdm, values=values
            ).positive_toll
        return cache[key]

    return Envelope(kind="exact", predict=predict)


def fit_conformal_envelope(
    predictor: Predictor,
    calibration_set: Sequence[tuple[tuple[int, str, str], float]],
    delta: float,
) -> Envelope:
    """One-sided split-conformal fit.

    ``calibration_set`` pairs each query key (time, state, action) with its
    true positive toll. With n samples the margin is the k-th smallest
    residual (true minus predicted), k = ceil((n + 1) * (1 - delta)), clamped
    at zero. k must not exceed n, otherwise the finite-sample quantile is
    vacuous and the fit is refused. Exchangeability of calibration and
    evaluation points is the caller's obligation and is not checked.
    """
    if not 0.0 < delta < 1.0:
        raise ModelValidationError("delta must lie in (0, 1)", path="delta")
    n = len(calibration_set)
    k = math.ceil((n + 1) * (1.0 - delta))
    if n < 1 or k > n:
        raise CalibrationSizeError(
            f"need at least ceil(1/delta) - 1 calibration samples: n={n}, rank k={k}"
        )
    residuals = sorted(
        float(true) - predictor(t, s, a) for (t, s, a), true in calibration_set
    )
    inflation = max(residuals[k - 1], 0.0)
    return Envelope(
        kind="conformal",
        predict=predictor,
        inflation=inflation,
        calibration_meta={"quantile_rank": k, "raw_margin": residuals[k - 1]},
    )


def coverage_estimate(
    env: Envelope,
    test_set: Sequence[tuple[tuple[int, str, str], float]],
) -> float:
    """Fraction of test points whose true positive toll the envelope covers."""
    if not test_set:
        raise ModelValidationError("test set must be nonempty", path="test_set")
    hits = sum(
        1 for (t, s, a), true in test_set if float(true) <= env.query(t, s, a) + 1e-12
    )
    return hits / len(test_set)


# ---------------------------------------------------------------------------
# base predictors


def least_squares_predictor(
    feature_map: Callable[[int, str, str], Sequence[float]],
    training_set: Sequence[tuple[tuple[int, str, str], float]],
) -> Predictor:
    """Fit a linear model on query features by least squares and wrap it as a
    query-keyed predictor. Predictions may be negative; envelope queries
    clamp at zero."""
    if not training_set:
        raise ModelValidationError("training set must be nonempty", path="training_set")
    import numpy as np

    rows = np.asarray([feature_map(t, s, a) for (t, s, a), _ in training_set], dtype=float)
    targets = np.asarray([y for _, y in training_set], dtype=float)
    weights, *_ = np.linalg.lstsq(rows, targets, rcond=None)

    def predict(time: int, state: str, action: str) -> float:
        return float(np.dot(np.asarray(feature_map(time, state, action), dtype=float), weights))

    return predict


def scaled_predictor(base: Predictor, factor: float) -> Predictor:
    """Deliberately biased variant of a predictor, for negative controls."""

    def predict(time: int, state: str, action: str) -> float:
        return factor * base(time, state, action)

    return predict
