"""Band operators: coefficient polynomials, composition, windowed kernels."""

from fractions import Fraction

import pytest

from hch.bands import (
    BandOp,
    DegenerateBandError,
    band_cokernel,
    band_kernel,
    class_indices,
)
from hch.linalg import kernel_basis
from hch.poly import Poly
from hch.scalars import Scalar


def S(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


def half(a, b):
    # polynomial (a + b*n)/2
    return Poly([S(Fraction(a, 2)), S(Fraction(b, 2))])


def hyperbolic_band(lam):
    """f_n -> ((lam-n)/2) f_{n+2} + ((lam+n)/2) f_{n-2}."""
    return BandOp({2: half(lam, -1), -2: half(lam, 1)})


def test_poly_arithmetic():
    p = Poly([1, 2])          # 1 + 2n
    q = Poly([0, 0, 1])       # n^2
    assert (p + q).coeffs == [S(1), S(2), S(1)]
    assert (p * q).coeffs == [S(0), S(0), S(1), S(2)]
    assert p - p == Poly()
    assert not (p - p)
    assert p(3) == S(7)
    assert q(-2) == S(4)


def test_poly_shift():
    p = Poly([0, 0, 1])  # n^2
    assert p.shift(1).coeffs == [S(1), S(2), S(1)]  # (n+1)^2
    # shift is a ring map and composes additively
    q = Poly([3, -1, 2])
    assert q.shift(2).shift(-2) == q
    for n in range(-4, 5):
        assert q.shift(5)(n) == q(n + 5)


def test_bandop_apply_and_compose():
    a = BandOp({2: Poly([0, 1])})       # f_n -> n f_{n+2}
    b = BandOp({-2: Poly([1])})         # f_n -> f_{n-2}
    ab = a.compose(b)
    # (a.b) f_n = a f_{n-2} = (n-2) f_n
    assert ab.shifts() == [0]
    assert ab.coeff(0) == Poly([-2, 1])
    for n in (-3, 0, 1, 7):
        img = b.apply_line(n)
        total = {}
        for m, c in img.items():
            for k, d in a.apply_line(m).items():
                total[k] = total.get(k, S(0)) + c * d
        total = {k: v for k, v in total.items() if not v.is_zero()}
        assert total == ab.apply_line(n)


def test_bandop_commutator_weight_relation():
    # u raises by 2 with coefficient (lam - n), k0 is multiplication by n:
    # [k0, u] = 2u, an exact polynomial identity.
    lam = 5
    u = BandOp({2: Poly([lam, -1])})
    k0 = BandOp({0: Poly.x()})
    assert k0.commutator(u) == u.scale(2)


def test_windowed_matrix_no_truncation():
    op = hyperbolic_band(1)
    source = [-2, 0, 2]
    targets, mat = op.windowed_matrix(source)
    assert targets == [-4, -2, 0, 2, 4]
    # every kernel vector of the windowed matrix kills the operator globally
    for v in kernel_basis(mat):
        total = {}
        for n, c in zip(source, v):
            for m, d in op.apply_line(n).items():
                total[m] = total.get(m, S(0)) + c * d
        assert all(x.is_zero() for x in total.values())


def test_band_kernel_dims():
    even = class_indices(0, 2)

    dim, reps, stab = band_kernel(hyperbolic_band(0), even)
    assert dim == 1 and stab.certified
    assert reps[0] == {0: S(1)}

    dim, reps, stab = band_kernel(hyperbolic_band(4), even)
    assert dim == 1
    # kernel line is spanned by 2 f_0 - f_4 - f_{-4}
    rep = reps[0]
    assert set(rep) == {-4, 0, 4}
    scale = rep[0] / S(2)
    assert rep[4] == -scale and rep[-4] == -scale

    dim, reps, _ = band_kernel(hyperbolic_band(2), even)
    assert dim == 1
    rep = reps[0]
    assert set(rep) == {-2, 2} and rep[2] == -rep[-2]

    dim, _, _ = band_kernel(hyperbolic_band(1), even)
    assert dim == 0
    dim, _, _ = band_kernel(hyperbolic_band(-2), even)
    assert dim == 0
    dim, _, _ = band_kernel(hyperbolic_band(Fraction(3, 2)), even)
    assert dim == 0


def test_band_cokernel_dims():
    even = class_indices(0, 2)
    for lam, expected in [(0, 3), (1, 2), (2, 3), (4, 3), (-2, 2)]:
        dim, _, stab = band_cokernel(hyperbolic_band(lam), even, even)
        assert stab.certified
        assert dim == expected, lam


def test_zero_band_cokernel_rejected():
    with pytest.raises(DegenerateBandError):
        band_cokernel(BandOp(), class_indices(0, 2), class_indices(0, 2))


def test_degenerate_kernel_detected():
    # the zero operator's kernel is every window: refused before any window is read
    with pytest.raises(DegenerateBandError):
        band_kernel(BandOp({0: Poly()}), class_indices(0, 1))


def test_windows_follow_from_the_root_bound():
    def windows(op):
        return band_kernel(op, class_indices(0, 2))[2].windows

    small, wide = hyperbolic_band(0), hyperbolic_band(30)  # N* = 3 and 33
    assert windows(small) == [16, 24] and windows(wide) == [33, 41]


def test_max_window_env_cap(monkeypatch):
    # HCH_MAX_WINDOW no longer caps a window: kernels and cokernels keep both windows past N*
    even = class_indices(0, 2)
    for value in ("4", "20", "40", "abc"):
        monkeypatch.setenv("HCH_MAX_WINDOW", value)
        for op, windows in ((hyperbolic_band(0), [16, 24]), (hyperbolic_band(30), [33, 41])):
            _, _, stab = band_kernel(op, even)
            assert stab.windows == windows and stab.certified
            _, _, stab = band_cokernel(op, even, even)
            assert stab.windows == windows and stab.certified
