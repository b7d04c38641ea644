"""Window certificates past N*: the indicial-root bound of the band operator."""

from fractions import Fraction

import pytest

import hch.sl2
from hch.bands import (
    BandOp,
    StabilizationPolicy,
    UncertifiedStabilizationError,
    band_cokernel,
    band_kernel,
    class_indices,
    root_bound,
)
from hch.poly import Poly
from hch.scalars import Scalar
from hch.sl2 import principal_series, sl2_branching_report

REFERENCE = StabilizationPolicy(windows=(64, 72))
RATIONALS = [Fraction(7, 3), Fraction(-5, 2), Fraction(-7, 5), Fraction(47, 2),
             Fraction(77, 3), Fraction(101, 3)]


def S(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


@pytest.mark.parametrize("lam, nstar", [(0, 3), (4, 7), (12, 15), (-4, 7), (24, 27),
                                        (50, 53), (Fraction(71, 6), 15), (Fraction(-7, 5), 5)])
def test_root_bound_of_theta(lam, nstar):
    # theta's extreme coefficients (lam -+ n)/2 have the root +-lam: Cauchy gives 1 + |lam|
    assert root_bound(principal_series(lam, 0).theta) == nstar


def test_root_bound_cases():
    assert root_bound(BandOp()) == 0
    assert root_bound(BandOp({1: Poly([1])})) == 1  # no root: the shift alone
    # (3 + 4i)/i = 4 - 3i, bounded by 4 + 3 = 7; the true root modulus is 5
    assert root_bound(BandOp({0: Poly([S(3, 4), S(0, 1)])})) == 8
    # the middle shift does not count; the larger extreme does
    op = BandOp({-1: Poly([S(1, 2), S(1)]), 0: Poly([S(1000), S(1)]), 3: Poly([S(5), S(-2)])})
    assert root_bound(op) == max(1 + 1, 1 + 3) + 3
    # degree 2: 1 + max(|c0/c2|, |c1/c2|) = 1 + max(6, 5/2) rounded up
    assert root_bound(BandOp({2: Poly([S(6), S(Fraction(-5, 2)), S(1)])})) == 7 + 2


@pytest.mark.parametrize("subpair, lam, dims", [
    ("diagonal_torus", 24, (3, 1)),
    ("diagonal_torus", 26, (3, 1)),
    ("diagonal_torus", 30, (3, 1)),
    ("torus_normalizer", 26, (2, 1)),
    ("torus_normalizer", 30, (2, 1)),
])
def test_rows_past_the_old_ladder_are_right(subpair, lam, dims):
    rep = sl2_branching_report(lam, 0, subpair)
    assert (rep.dims[0], rep.dims[1]) == dims
    assert rep.certified()
    assert all(s.windows[-1] >= root_bound(principal_series(lam, 0).theta)
               for s in rep.stabilization.values())


@pytest.mark.parametrize("subpair", ["diagonal_torus", "torus_normalizer"])
@pytest.mark.parametrize("lam", [34, 50])
def test_rows_the_ladder_cannot_reach_are_not_certified(subpair, lam):
    with pytest.raises(UncertifiedStabilizationError) as exc:
        sl2_branching_report(lam, 0, subpair)
    assert exc.value.stabilization.certified is False


@pytest.mark.parametrize("lam", [50, Fraction(201, 2)])
def test_empty_classes_certify_as_before(lam):
    rep = sl2_branching_report(lam, 1)
    assert rep.dims == {0: 0, 1: 0} and rep.certified()
    assert all(s.windows == [16, 24] for s in rep.stabilization.values())


def test_sweep_rows_stop_at_the_first_two_windows():
    for lam in [*range(-4, 13), Fraction(71, 6), Fraction(-31, 8)]:
        for subpair in ("diagonal_torus", "torus_normalizer"):
            rep = sl2_branching_report(lam, 0, subpair)
            assert all(s.windows == [16, 24] for s in rep.stabilization.values()), lam


@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("subpair", ["diagonal_torus", "torus_normalizer"])
def test_every_certified_row_equals_the_wide_window_reference(subpair, eps):
    uncertified = []
    for lam in [*range(-4, 41), *RATIONALS]:
        theta = principal_series(lam, eps).theta
        c1, c0 = hch.sl2._coinvariant_classes(eps, subpair)
        h1, _, stab1 = band_kernel(theta, c1, REFERENCE)
        h0, _, stab0 = band_cokernel(theta, c1, c0, REFERENCE)
        assert stab1.certified and stab0.certified
        try:
            rep = sl2_branching_report(lam, eps, subpair)
        except UncertifiedStabilizationError:
            uncertified.append(lam)
            continue
        assert rep.certified()
        assert rep.dims == {0: h0, 1: h1}, lam
    if eps == 0:
        # the default ladder ends at 48 and cannot certify an even lambda past it
        assert uncertified and min(uncertified) >= 31
    else:
        assert uncertified == []


def test_a_window_below_nstar_never_certifies():
    # theta at lambda = 30 agrees on the windows 16 and 24 (both read H1 = 0)
    theta = principal_series(30, 0).theta
    even = class_indices(0, 2)
    with pytest.raises(UncertifiedStabilizationError, match=r"past N\* = 33"):
        band_kernel(theta, even, StabilizationPolicy(windows=(16, 24)))
    dim, _, stab = band_kernel(theta, even, StabilizationPolicy(windows=(16, 24, 33, 40)))
    assert dim == 1 and stab.windows == [16, 24, 33, 40] and stab.dims_per_window == [0, 0, 1, 1]
