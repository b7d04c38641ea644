"""Window certificates past N*: the indicial-root bound of the band operator."""

from fractions import Fraction

import pytest

import hch.sl2
from dense_reference import wide_window_band_dims
from hch.bands import (
    BandOp,
    DegenerateBandError,
    band_cokernel,
    band_kernel,
    class_indices,
    root_bound,
)
from hch.linalg import kernel_basis
from hch.poly import Poly
from hch.scalars import Scalar
from hch.sl2 import principal_series, sl2_branching_report

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
    *[("diagonal_torus", lam, (3, 1)) for lam in (32, 34, 36, 40, 44, 50)],
    *[("torus_normalizer", lam, (2, 1)) for lam in (34, 38, 42, 46, 50)],
    ("diagonal_torus", Fraction(101, 3), (2, 0)),
])
def test_rows_past_the_old_ladder_are_right(subpair, lam, dims):
    rep = sl2_branching_report(lam, 0, subpair)
    assert (rep.dims[0], rep.dims[1]) == dims
    assert rep.certified()
    w = max(16, root_bound(principal_series(lam, 0).theta))
    assert all(s.windows == [w, w + 8] for s in rep.stabilization.values())


@pytest.mark.parametrize("lam", [50, Fraction(201, 2)])
def test_empty_classes_certify_as_before(lam):
    rep = sl2_branching_report(lam, 1)
    assert rep.dims == {0: 0, 1: 0} and rep.certified()
    w = max(16, root_bound(principal_series(lam, 1).theta))
    assert all(s.windows == [w, w + 8] for s in rep.stabilization.values())


def test_sweep_rows_stop_at_the_first_two_windows():
    for lam in [*range(-4, 13), Fraction(71, 6), Fraction(-31, 8)]:
        for subpair in ("diagonal_torus", "torus_normalizer"):
            rep = sl2_branching_report(lam, 0, subpair)
            assert all(s.windows == [16, 24] for s in rep.stabilization.values()), lam


@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("subpair", ["diagonal_torus", "torus_normalizer"])
def test_every_certified_row_equals_the_wide_window_reference(subpair, eps):
    for lam in [*range(-4, 61), *RATIONALS]:
        theta = principal_series(lam, eps).theta
        c1, c0 = hch.sl2._coinvariant_classes(eps, subpair)
        h1, h0 = wide_window_band_dims(theta, c1, c0)
        rep = sl2_branching_report(lam, eps, subpair)
        assert rep.certified()
        assert rep.dims == {0: h0, 1: h1}, lam


def test_a_window_below_nstar_never_certifies():
    # theta at lambda = 30 reads H1 = 0 on the window 24, below N* = 33; the kernel is a line,
    # and band_kernel certifies it on windows that both lie past N*
    theta = principal_series(30, 0).theta
    even = class_indices(0, 2)
    assert root_bound(theta) == 33
    assert len(kernel_basis(theta.windowed_matrix(even(24))[1])) == 0
    dim, _, stab = band_kernel(theta, even)
    assert dim == 1 and stab.windows == [33, 41] and stab.dims_per_window == [1, 1]
    assert stab.certified


def test_a_target_class_no_line_reaches_is_degenerate():
    # theta moves by +-2, so from 0 mod 4 it reaches 2 mod 4 and never 1 mod 4
    theta = principal_series(4, 0).theta
    with pytest.raises(DegenerateBandError, match=r"cokernel dims \[8, 12\] differ past N\* = 7"):
        band_cokernel(theta, class_indices(0, 4), class_indices(1, 4))
