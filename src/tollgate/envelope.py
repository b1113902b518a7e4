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
from typing import Callable, NamedTuple, Sequence

from .envmodel import EnvironmentModel, Policy, SafeDefaultMap
from .exceptions import CalibrationSizeError, ModelValidationError
from .risk import PolicyValues, RiskSpec
from .tolls import counterfactual_toll

Predictor = Callable[[int, str, str], float]


class Envelope(NamedTuple):
    """Nonnegative upper bound c(time, state, action) on the positive toll."""

    kind: str  # "exact" | "conformal"
    predict: Predictor
    inflation: float = 0.0
    quantile_rank: int = 0  # rank of the conformal margin; 0 when not fitted

    def query(self, time: int, state: str, action: str) -> float:
        return float(max(self.predict(time, state, action) + self.inflation, 0.0))


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


def conformal_rank(n: int, delta: float) -> int:
    """The rank k = ceil((n + 1) * (1 - delta)) of the conformal margin among
    n calibration residuals. A delta outside (0, 1) raises
    :class:`ModelValidationError`; k > n, where the finite-sample quantile
    is vacuous, raises :class:`CalibrationSizeError`."""
    if not 0.0 < delta < 1.0:
        raise ModelValidationError("delta must lie in (0, 1)", path="delta")
    k = math.ceil((n + 1) * (1.0 - delta))
    if n < 1 or k > n:
        raise CalibrationSizeError(
            f"need at least ceil(1/delta) - 1 calibration samples: n={n}, rank k={k}"
        )
    return k


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
    k = conformal_rank(len(calibration_set), delta)
    residuals = sorted(
        float(true) - predictor(t, s, a) for (t, s, a), true in calibration_set
    )
    inflation = max(residuals[k - 1], 0.0)
    return Envelope(kind="conformal", predict=predictor, inflation=inflation, quantile_rank=k)


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
    rows = [feature_map(t, s, a) for (t, s, a), _ in training_set]
    weights = _least_squares_weights(rows, [y for _, y in training_set])

    def predict(time: int, state: str, action: str) -> float:
        return _dot(weights, feature_map(time, state, action))

    return predict


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return math.fsum(a * b for a, b in zip(u, v))


def _least_squares_weights(
    rows: Sequence[Sequence[float]], targets: Sequence[float]
) -> list[float]:
    """Weights minimising the squared residual of ``rows`` against
    ``targets``, by modified Gram-Schmidt on the columns, the targets taken
    as one last column. A column whose part outside the span of the earlier
    columns is at most 1e-9 of its norm gets weight 0: the fitted values of
    a rank-deficient design are unique all the same."""
    n = len(rows[0])
    basis, r = [], {}
    for k, col in enumerate([*zip(*rows), targets]):
        scale = math.hypot(*col)
        for j, q in basis:
            r[j, k] = _dot(q, col)
            col = [x - r[j, k] * e for x, e in zip(col, q)]
        norm = math.hypot(*col)
        if k < n and norm > 1e-9 * scale:
            r[k, k] = norm
            basis.append((k, [x / norm for x in col]))
    weights = [0.0] * n
    for j, _ in reversed(basis):
        tail = _dot([r[j, k] for k in range(j + 1, n)], weights[j + 1:])
        weights[j] = (r[j, n] - tail) / r[j, j]
    return weights
