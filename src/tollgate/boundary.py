"""Underwriting boundaries: cumulative exposure accounting and potential
tolls.

A boundary aggregates exposure into a nonnegative vector E that only ever
grows; reversals are new actions with their own exposure, never negative
increments. The boundary toll of an increment is the difference of a
monotone potential evaluated after and before the increment, so any
decomposition of the same total exposure into smaller steps telescopes to
the same total charge. An opaque outside-state tag rides along in the ledger
and survives session churn; the path-dependence counterexample below shows
exactly what omitting it from the exposure vector costs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exceptions import ModelValidationError, PartitionMismatchError

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PotentialSpec:
    """Monotone toll potential on the exposure cone, zero at the origin.

    kinds:
      linear            phi(E) = sum_i weights[i] * E[i]
      power             phi(E) = sum_i weights[i] * E[i] ** exponent
      piecewise_convex  phi(E) = sum_i f_i(E[i]) with f_i piecewise linear
                        through per-dimension knots, extended with the last
                        slope; knots must start at (0, 0) with nondecreasing,
                        nonnegative slopes
    """

    kind: str
    weights: tuple[float, ...] = ()
    exponent: float = 1.0
    knots: tuple[tuple[tuple[float, float], ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind in ("linear", "power"):
            if not self.weights:
                raise ModelValidationError("potential needs weights", path="potential.weights")
            if not all(w >= 0 and math.isfinite(w) for w in self.weights):
                raise ModelValidationError(
                    "potential weights must be finite and >= 0", path="potential.weights"
                )
            if self.kind == "power" and not (
                self.exponent >= 1.0 and math.isfinite(self.exponent)
            ):
                raise ModelValidationError(
                    "power potential needs a finite exponent >= 1", path="potential.exponent"
                )
        elif self.kind == "piecewise_convex":
            if not self.knots:
                raise ModelValidationError("piecewise potential needs knots", path="potential.knots")
            for d, dim_knots in enumerate(self.knots):
                if len(dim_knots) < 2 or dim_knots[0] != (0.0, 0.0):
                    raise ModelValidationError(
                        "knot list must start at (0, 0) and have >= 2 points",
                        path=f"potential.knots[{d}]",
                    )
                if not all(math.isfinite(c) for knot in dim_knots for c in knot):
                    raise ModelValidationError(
                        "knot coordinates must be finite", path=f"potential.knots[{d}]"
                    )
                slopes = []
                for (x0, y0), (x1, y1) in zip(dim_knots, dim_knots[1:]):
                    if x1 <= x0:
                        raise ModelValidationError(
                            "knot abscissae must increase", path=f"potential.knots[{d}]"
                        )
                    slopes.append((y1 - y0) / (x1 - x0))
                if any(s < 0 for s in slopes) or any(
                    b < a - 1e-12 for a, b in zip(slopes, slopes[1:])
                ):
                    raise ModelValidationError(
                        "knot slopes must be nonnegative and nondecreasing",
                        path=f"potential.knots[{d}]",
                    )
        else:
            raise ModelValidationError(f"unknown potential kind {self.kind!r}", path="potential.kind")
        # These structural checks already make phi zero at the origin and
        # nondecreasing on the exposure cone, so no sampled probe is needed.

    @property
    def dimension(self) -> int:
        return len(self.knots) if self.kind == "piecewise_convex" else len(self.weights)

    def value(self, exposure: Sequence[float]) -> float:
        if len(exposure) != self.dimension:
            raise ModelValidationError(
                f"exposure has dimension {len(exposure)}, potential expects {self.dimension}",
                path="potential",
            )
        if self.kind == "linear":
            return float(sum(w * e for w, e in zip(self.weights, exposure)))
        if self.kind == "power":
            return float(sum(w * e**self.exponent for w, e in zip(self.weights, exposure)))
        total = 0.0
        for dim_knots, e in zip(self.knots, exposure):
            total += _piecewise_eval(dim_knots, e)
        return float(total)


def _piecewise_eval(knots: Sequence[tuple[float, float]], x: float) -> float:
    if x <= knots[0][0]:
        return knots[0][1]
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    x0, y0 = knots[-2]
    x1, y1 = knots[-1]
    slope = (y1 - y0) / (x1 - x0)
    return y1 + slope * (x - x1)


@dataclass(frozen=True)
class BoundarySpec:
    """Contractual aggregation unit: id, exposure dimension, potential, and a
    declaration of the outside-state variables that persist across splits."""

    boundary_id: str
    dimension: int
    potential: PotentialSpec
    outside_state: str = ""

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ModelValidationError("boundary dimension must be >= 1", path="boundary.dimension")
        if self.potential.dimension != self.dimension:
            raise ModelValidationError(
                "potential dimension does not match boundary dimension",
                path="boundary.potential",
            )


def _check_increment(increment: Sequence[float], dimension: int) -> tuple[float, ...]:
    inc = tuple(float(x) for x in increment)
    if len(inc) != dimension:
        raise ModelValidationError(
            f"increment has dimension {len(inc)}, expected {dimension}", path="increment"
        )
    if not all(x >= 0 and math.isfinite(x) for x in inc):
        raise ModelValidationError(
            "increment components must be finite and >= 0", path="increment"
        )
    return inc


def _grown(exposure: Sequence[float], increment: Sequence[float]) -> tuple[float, ...]:
    """``exposure`` plus a checked increment, componentwise."""
    inc = _check_increment(increment, len(exposure))
    return tuple(e + d for e, d in zip(exposure, inc))


def boundary_toll(
    exposure: Sequence[float], increment: Sequence[float], pot: PotentialSpec
) -> float:
    """Potential difference charged for one increment on top of ``exposure``."""
    return pot.value(_grown(exposure, increment)) - pot.value(exposure)


@dataclass(frozen=True)
class BoundaryLedger:
    """Per-boundary exposure ledger as an immutable value: the boundary specs,
    one exposure vector and one version per boundary in declaration order,
    and the ordered record of every commit for the run log.

    :meth:`commit` returns the next ledger and leaves its receiver as it
    was, so one empty ledger serves every episode of a gate and a ledger
    forks by reference. Build the empty ledger with :meth:`empty`.
    """

    specs: tuple[BoundarySpec, ...]
    exposures: tuple[tuple[float, ...], ...]
    versions: tuple[int, ...]
    records: tuple[dict, ...] = ()

    @classmethod
    def empty(cls, specs: Iterable[BoundarySpec]) -> BoundaryLedger:
        """The ledger before any commit; a repeated boundary id is refused."""
        specs = tuple(specs)
        ids = [spec.boundary_id for spec in specs]
        for i, boundary_id in enumerate(ids):
            if boundary_id in ids[:i]:
                raise ModelValidationError(
                    f"duplicate boundary id {boundary_id!r}", path="boundaries"
                )
        return cls(specs, tuple((0.0,) * spec.dimension for spec in specs), (0,) * len(specs))

    @property
    def first_version(self) -> int:
        """Version of the first declared boundary, 0 without boundaries: the
        ``boundary_version`` each gate entry logs."""
        return self.versions[0] if self.versions else 0

    def _index(self, boundary_id: str) -> int:
        return [spec.boundary_id for spec in self.specs].index(boundary_id)

    def quote(self, boundary_id: str, increment: Sequence[float]) -> float:
        i = self._index(boundary_id)
        return boundary_toll(self.exposures[i], increment, self.specs[i].potential)

    def commit(self, boundary_id: str, increment: Sequence[float]) -> BoundaryLedger:
        """This ledger with one boundary's exposure grown by a checked
        increment, its version ticked and the commit recorded."""
        i = self._index(boundary_id)
        exposure = _grown(self.exposures[i], increment)
        version = self.versions[i] + 1
        record = {
            "boundary_id": boundary_id,
            "version": version,
            "exposure": list(exposure),
            "outside_state": self.specs[i].outside_state,
        }
        return BoundaryLedger(
            self.specs,
            self.exposures[:i] + (exposure,) + self.exposures[i + 1 :],
            self.versions[:i] + (version,) + self.versions[i + 1 :],
            self.records + (record,),
        )


# ---------------------------------------------------------------------------
# splitting invariance


@dataclass(frozen=True)
class SplitCheckReport:
    reference_toll: float
    partition_tolls: tuple[float, ...]
    max_gap: float


def _sequence_toll(pot: PotentialSpec, start: Sequence[float], steps: Sequence[Sequence[float]]) -> float:
    """Toll of checked ``steps`` taken in order from ``start``: each step's
    potential difference, summed."""
    exposure = tuple(float(x) for x in start)
    total = 0.0
    for step in steps:
        after = tuple(e + d for e, d in zip(exposure, step))
        total += pot.value(after) - pot.value(exposure)
        exposure = after
    return total


def random_partition(
    rng: random.Random, total: Sequence[float], pieces: int
) -> list[tuple[float, ...]]:
    """``total`` cut into ``pieces`` nonnegative increments at sorted uniform
    cut points per dimension, in a random order; one piece draws nothing."""
    columns = []
    for x in total:
        bounds = [0.0, *sorted(rng.random() for _ in range(pieces - 1)), 1.0]
        columns.append([(hi - lo) * x for lo, hi in zip(bounds, bounds[1:])])
    steps = list(zip(*columns))
    rng.shuffle(steps)
    return steps


def splitting_invariance_check(
    pot: PotentialSpec,
    start: Sequence[float],
    total: Sequence[float],
    partitions: Sequence[Sequence[Sequence[float]]],
) -> SplitCheckReport:
    """Boundary toll of each partition of ``total`` against the one-shot
    charge.

    Each partition is an ordered sequence of nonnegative increments that must
    sum componentwise to ``total``; a partition that does not raises
    :class:`PartitionMismatchError`. The reference charge is the one-shot
    potential difference, and ``max_gap`` is the largest distance of a
    partition's toll from it. Judging the gap is the caller's business: for a
    valid potential it is zero up to rounding.
    """
    d = pot.dimension
    start = tuple(float(x) for x in start)
    total_vec = _check_increment(total, d)
    checked = []
    for i, steps in enumerate(partitions):
        incs = [_check_increment(step, d) for step in steps]
        summed = [0.0] * d
        for inc in incs:
            for j in range(d):
                summed[j] += inc[j]
        if any(abs(summed[j] - total_vec[j]) > _SUM_TOL for j in range(d)):
            raise PartitionMismatchError(
                f"partition {i} sums to {tuple(summed)}, expected {total_vec}"
            )
        checked.append(incs)

    end = tuple(s + t for s, t in zip(start, total_vec))
    reference = pot.value(end) - pot.value(start)
    tolls = tuple(_sequence_toll(pot, start, incs) for incs in checked)
    return SplitCheckReport(
        reference_toll=reference,
        partition_tolls=tolls,
        max_gap=max((abs(t - reference) for t in tolls), default=0.0),
    )


# ---------------------------------------------------------------------------
# path-dependence counterexample


@dataclass(frozen=True)
class PathDependenceReport:
    """What a boundary potential cannot see when the loss law depends on the
    order and granularity of increments, not just their sum.

    Two payment sequences reach the same cumulative exposure, so their
    boundary-toll totals agree to the last bit, yet the true risk of the
    sequence containing one large transfer differs by ``true_gap``. Folding
    the offending path statistic into a second exposure dimension makes a
    redesigned potential price the difference exactly.
    """

    toll_bulk: float
    toll_split: float
    true_gap: float
    invisible_gap: float
    redesigned_invisible_gap: float
    compliant_ordering_max_gap: float
    compliant_orderings_searched: int


_LARGE_TRANSFER_THRESHOLD = 3.0
_REVIEW_BYPASS_PENALTY = 4.0


def _sequence_true_risk(steps: Sequence[Sequence[float]]) -> float:
    # Crafted loss rule for the counterexample: the insured loss grows with
    # the square of total exposure, plus a review-bypass penalty if any single
    # increment reached the large-transfer threshold. The second term depends
    # on the path, not on cumulative exposure.
    total = sum(step[0] for step in steps)
    loss = 0.5 * total**2
    if any(step[0] >= _LARGE_TRANSFER_THRESHOLD for step in steps):
        loss += _REVIEW_BYPASS_PENALTY
    return loss


def path_dependence_counterexample() -> PathDependenceReport:
    """Built-in instance violating the exposure-determined-loss assumption,
    plus the boundary redesign that restores it."""
    pot = PotentialSpec(kind="power", weights=(0.5,), exponent=2.0)
    start = (0.0,)
    bulk = ((3.0,), (1.0,))
    split = ((2.0,), (2.0,))

    toll_bulk = _sequence_toll(pot, start, bulk)
    toll_split = _sequence_toll(pot, start, split)
    true_gap = _sequence_true_risk(bulk) - _sequence_true_risk(split)
    invisible = abs(true_gap - (toll_bulk - toll_split))

    # Redesign: expose the path statistic as a second dimension counting
    # large transfers, priced linearly at the bypass penalty.
    pot2 = PotentialSpec(
        kind="piecewise_convex",
        knots=(
            ((0.0, 0.0), (1.0, 0.5), (2.0, 2.0), (4.0, 8.0), (8.0, 32.0)),
            ((0.0, 0.0), (1.0, _REVIEW_BYPASS_PENALTY)),
        ),
    )
    bulk2 = tuple(
        (step[0], 1.0 if step[0] >= _LARGE_TRANSFER_THRESHOLD else 0.0) for step in bulk
    )
    split2 = tuple(
        (step[0], 1.0 if step[0] >= _LARGE_TRANSFER_THRESHOLD else 0.0) for step in split
    )
    toll_bulk2 = _sequence_toll(pot2, (0.0, 0.0), bulk2)
    toll_split2 = _sequence_toll(pot2, (0.0, 0.0), split2)
    invisible2 = abs(true_gap - (toll_bulk2 - toll_split2))

    # With the assumption satisfied (no path term), exhaustive reordering of
    # up to four increments finds no realised-toll gap.
    compliant_steps = [(1.0,), (1.0,), (2.0,), (0.5,)]
    max_gap = 0.0
    searched = 0
    reference = None
    for perm in itertools.permutations(compliant_steps):
        searched += 1
        risk = 0.5 * sum(s[0] for s in perm) ** 2  # loss law without the path term
        toll = _sequence_toll(pot, start, perm)
        if reference is None:
            reference = (risk, toll)
        max_gap = max(max_gap, abs(risk - reference[0]), abs(toll - reference[1]))

    return PathDependenceReport(
        toll_bulk=toll_bulk,
        toll_split=toll_split,
        true_gap=true_gap,
        invisible_gap=invisible,
        redesigned_invisible_gap=invisible2,
        compliant_ordering_max_gap=max_gap,
        compliant_orderings_searched=searched,
    )
