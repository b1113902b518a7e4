"""Underwriting boundaries: cumulative exposure accounting and potential
tolls.

A boundary aggregates exposure into a nonnegative vector E that only ever
grows; reversals are new actions with their own exposure, never negative
increments. The boundary toll of an increment is the difference of a
monotone potential evaluated after and before the increment, so any
decomposition of the same total exposure into smaller steps telescopes to
the same total charge. An opaque outside-state tag rides along in the ledger
and survives session churn; the ``no-splitting`` suite of
:mod:`tollgate.verify` checks a path-dependence counterexample that shows
exactly what omitting it from the exposure vector costs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, NamedTuple, Sequence

from .exceptions import Checked, ModelValidationError, PartitionMismatchError

_SUM_TOL = 1e-12


class PotentialSpec(
    Checked,
    namedtuple("PotentialSpec", "kind weights exponent knots", defaults=((), 1.0, ()))
):
    """Monotone toll potential on the exposure cone, zero at the origin.

    kinds:
      linear            phi(E) = sum_i weights[i] * E[i]
      power             phi(E) = sum_i weights[i] * E[i] ** exponent
      piecewise_convex  phi(E) = sum_i f_i(E[i]) with f_i piecewise linear
                        through per-dimension knots, extended with the last
                        slope; knots must start at (0, 0) with nondecreasing,
                        nonnegative slopes
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PotentialSpec:
        self = super().__new__(cls, *args, **kwargs)
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
        return self

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


class BoundarySpec(
    Checked,
    namedtuple("BoundarySpec", "boundary_id dimension potential outside_state", defaults=("",))
):
    """Contractual aggregation unit: id, exposure dimension, potential, and a
    declaration of the outside-state variables that persist across splits."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> BoundarySpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.dimension < 1:
            raise ModelValidationError("boundary dimension must be >= 1", path="dimension")
        if self.potential.dimension != self.dimension:
            raise ModelValidationError(
                "potential dimension does not match boundary dimension",
                path="potential",
            )
        return self


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


class BoundaryLedger(NamedTuple):
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


class SplitCheckReport(NamedTuple):
    reference_toll: float
    partition_tolls: tuple[float, ...]
    max_gap: float


def _sequence_toll(pot: PotentialSpec, start: Sequence[float], steps: Sequence[Sequence[float]]) -> float:
    """Toll of checked ``steps`` taken in order from ``start``: each step's
    potential difference, summed, each exposure valued once."""
    exposure = tuple(float(x) for x in start)
    before = pot.value(exposure)
    total = 0.0
    for step in steps:
        exposure = tuple(e + d for e, d in zip(exposure, step))
        after = pot.value(exposure)
        total += after - before
        before = after
    return total


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
