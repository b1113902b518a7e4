"""Exposure ledger, potential tolls, splitting invariance, path dependence."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from tollgate.boundary import (
    BoundaryLedger,
    BoundarySpec,
    PotentialSpec,
    boundary_toll,
    splitting_invariance_check,
)
from tollgate.exceptions import ModelValidationError, PartitionMismatchError
from tollgate.instances import random_partition, random_potential
from tollgate.verify import no_splitting_suite


def test_potential_must_vanish_at_origin():
    with pytest.raises(ModelValidationError):
        PotentialSpec(kind="piecewise_convex", knots=(((0.0, 1.0), (1.0, 2.0)),))


def test_potential_rejects_negative_weights():
    with pytest.raises(ModelValidationError):
        PotentialSpec(kind="linear", weights=(-1.0,))


def test_potential_rejects_sublinear_power():
    with pytest.raises(ModelValidationError):
        PotentialSpec(kind="power", weights=(1.0,), exponent=0.5)


def test_potential_rejects_nonconvex_knots():
    with pytest.raises(ModelValidationError):
        PotentialSpec(
            kind="piecewise_convex",
            knots=(((0.0, 0.0), (1.0, 2.0), (2.0, 2.5)),),  # slopes decrease
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "linear", "weights": (float("nan"),)},
        {"kind": "linear", "weights": (float("inf"),)},
        {"kind": "power", "weights": (1.0,), "exponent": float("inf")},
        {"kind": "piecewise_convex", "knots": (((0.0, 0.0), (1.0, float("nan"))),)},
    ],
    ids=["nan-weight", "inf-weight", "inf-exponent", "nan-knot"],
)
def test_potential_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ModelValidationError):
        PotentialSpec(**kwargs)


def test_zero_increment_pays_nothing():
    pot = PotentialSpec(kind="power", weights=(1.0,), exponent=2.0)
    assert boundary_toll((2.0,), (0.0,), pot) == 0.0


def test_power_toll_example():
    pot = PotentialSpec(kind="power", weights=(1.0,), exponent=2.0)
    assert boundary_toll((2.0,), (1.0,), pot) == pytest.approx(5.0, abs=1e-12)


def test_linear_toll_is_exposure_independent():
    pot = PotentialSpec(kind="linear", weights=(2.0, 3.0))
    for exposure in ((0.0, 0.0), (7.5, 11.25)):
        assert boundary_toll(exposure, (1.0, 1.0), pot) == pytest.approx(5.0, abs=1e-9)


def test_negative_increment_rejected():
    pot = PotentialSpec(kind="linear", weights=(1.0,))
    with pytest.raises(ModelValidationError):
        boundary_toll((0.0,), (-0.5,), pot)
    ledger = BoundaryLedger.empty([BoundarySpec("b", 1, pot)])
    with pytest.raises(ModelValidationError):
        ledger.commit("b", (-0.5,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_ledger_rejects_non_finite_increment(bad):
    pot = PotentialSpec(kind="linear", weights=(1.0, 1.0))
    ledger = BoundaryLedger.empty([BoundarySpec("b", 2, pot)])
    with pytest.raises(ModelValidationError):
        ledger.commit("b", (1.0, bad))
    with pytest.raises(ModelValidationError):
        ledger.quote("b", (bad, 0.0))
    assert ledger.exposures == ((0.0, 0.0),)
    assert ledger.first_version == 0
    assert ledger.records == ()


def test_ledger_refuses_duplicate_boundary_id():
    spec = BoundarySpec("b", 1, PotentialSpec(kind="linear", weights=(1.0,)))
    with pytest.raises(ModelValidationError, match="duplicate boundary id 'b'") as info:
        BoundaryLedger.empty([spec, spec])
    assert info.value.path == "boundaries"


def test_ledger_commit_versions():
    spec = BoundarySpec("b", 1, PotentialSpec(kind="linear", weights=(1.0,)), outside_state="tag")
    other = BoundarySpec("c", 1, PotentialSpec(kind="linear", weights=(1.0,)))
    ledger = BoundaryLedger.empty([spec, other])
    assert ledger.quote("b", (3.0,)) == 3.0
    ledger = ledger.commit("b", (1.0,)).commit("c", (4.0,)).commit("b", (2.0,))
    assert ledger.exposures == ((3.0,), (4.0,))
    assert ledger.first_version == 2
    assert ledger.versions == (2, 1)
    assert ledger.records == (
        {"boundary_id": "b", "version": 1, "exposure": [1.0], "outside_state": "tag"},
        {"boundary_id": "c", "version": 1, "exposure": [4.0], "outside_state": ""},
        {"boundary_id": "b", "version": 2, "exposure": [3.0], "outside_state": "tag"},
    )


def _two_boundary_ledger() -> BoundaryLedger:
    """A ledger three commits in, over two boundaries."""
    pot = PotentialSpec(kind="power", weights=(1.0, 0.5), exponent=2.0)
    ledger = BoundaryLedger.empty(
        [BoundarySpec("b", 2, pot, outside_state="tag"), BoundarySpec("c", 2, pot)]
    )
    return ledger.commit("b", (1.0, 0.5)).commit("c", (0.25, 0.0)).commit("b", (0.0, 2.0))


def test_ledger_commit_returns_next_ledger_and_leaves_receiver_unchanged():
    ledger = _two_boundary_ledger()
    before = copy.deepcopy(ledger)
    after = ledger.commit("c", (1.0, 1.0))
    assert after is not ledger
    assert ledger == before
    assert ledger.exposures[1] == (0.25, 0.0)
    assert after.exposures[1] == (1.25, 1.0)
    assert after.versions == (2, 2) and ledger.versions == (2, 1)
    assert after.records[:-1] == ledger.records
    # a second commit from the same receiver forks it: both branches agree
    # on the shared history and see only their own increment
    fork = ledger.commit("c", (0.0, 3.0))
    assert fork.exposures[1] == (0.25, 3.0)
    assert after.exposures[1] == (1.25, 1.0)
    assert ledger == before


def test_ledger_survives_deepcopy_and_pickle_mid_episode():
    ledger = _two_boundary_ledger()
    for clone in (copy.deepcopy(ledger), pickle.loads(pickle.dumps(ledger))):
        assert clone == ledger
        assert clone.commit("b", (1.0, 1.0)) == ledger.commit("b", (1.0, 1.0))


def test_splitting_example_power():
    pot = PotentialSpec(kind="power", weights=(1.0,), exponent=2.0)
    report = splitting_invariance_check(
        pot, (0.0,), (3.0,), [[(3.0,)], [(1.0,), (1.0,), (1.0,)]]
    )
    assert report.reference_toll == pytest.approx(9.0, abs=1e-12)
    assert all(t == pytest.approx(9.0, abs=1e-9) for t in report.partition_tolls)
    assert report.max_gap <= 1e-9


def test_splitting_example_linear():
    pot = PotentialSpec(kind="linear", weights=(2.0,))
    rng = random.Random(3)
    drawn = [random_partition(rng, (4.0,), rng.randint(1, 5)) for _ in range(25)]
    report = splitting_invariance_check(
        pot, (5.0,), (4.0,), [[(4.0,)], [(0.5,), (3.5,)], [(2.0,), (1.0,), (1.0,)]] + drawn,
    )
    assert report.reference_toll == pytest.approx(8.0, abs=1e-9)
    assert len(report.partition_tolls) == 28
    assert report.max_gap <= 1e-9


def test_partition_sum_mismatch_rejected():
    pot = PotentialSpec(kind="linear", weights=(1.0,))
    with pytest.raises(PartitionMismatchError):
        splitting_invariance_check(pot, (0.0,), (3.0,), [[(2.9,)]])


def test_randomised_telescoping():
    rng = random.Random(6)
    for _ in range(100):
        pot = random_potential(rng)
        d = pot.dimension
        start = tuple(rng.uniform(0.0, 4.0) for _ in range(d))
        total = tuple(rng.uniform(0.0, 6.0) for _ in range(d))
        partitions = [random_partition(rng, total, rng.randint(1, 5)) for _ in range(5)]
        report = splitting_invariance_check(pot, start, total, partitions)
        assert report.max_gap <= 1e-9
        assert all(t >= -1e-12 for t in report.partition_tolls)


def test_convex_marginal_toll_monotone_in_exposure():
    pot = PotentialSpec(kind="power", weights=(1.5,), exponent=2.5)
    inc = (0.7,)
    tolls = [
        boundary_toll((e,), inc, pot) for e in (0.0, 1.0, 2.0, 5.0)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(tolls, tolls[1:]))


def test_path_dependence_counterexample_and_redesign():
    props = {p.name: p for p in no_splitting_suite(seed=0).properties}
    counter = props["path-dependence-counterexample"].details
    # equal cumulative exposure, identical boundary tolls
    assert counter["lambda_bulk"] == pytest.approx(counter["lambda_split"], abs=1e-9)
    # yet the true risk differs by more than the detection threshold
    assert counter["true_gap"] > 0.01
    assert counter["invisible_gap"] > 0.01
    # folding the path statistic into the exposure makes the gap priceable
    assert props["boundary-redesign-restores-pricing"].details["residual"] <= 1e-9
    # and with the assumption satisfied no ordering shows any gap
    assert props["compliant-instance-has-no-ordering-gap"].passed
    assert props["compliant-instance-has-no-ordering-gap"].details["orderings"] == 24
