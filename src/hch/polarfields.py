"""Exact symbolic action of 2x2 matrix vector fields on homogeneous functions.

Functions are finite combinations sum_n c_n r^lam z^n with z = e^{i phi}; the
right-translation vector field of a 2x2 matrix X acts via

    (X f)(x) = d/dt f(x exp(tX)) |_{t=0} = (x X) . grad f,

and everything (cos phi, sin phi, x_1, x_2, the polar derivatives) is a
Laurent polynomial in z over Q(i) times a power of r, so the result is again
a combination of r^lam z^m with exact coefficients.  Used to derive K-type
band tables from first principles instead of trusting hand algebra.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .linalg import add_into
from .scalars import I, Scalar, as_scalar

# a K-finite function is a sparse map {n: c_n} standing for sum c_n r^lam z^n
KFunction = Dict[int, Scalar]

HALF = Scalar(Fraction(1, 2))
HALF_I = Scalar(0, Fraction(1, 2))  # i/2
NEG_HALF_I = -HALF_I                # -i/2 = 1/(2i)


def vector_field_apply(X: Tuple[Tuple, Tuple], lam, f: KFunction) -> KFunction:
    """Apply the vector field of X = [[a,b],[c,d]] to f, both exact.

    Uses d1 f_n = r^{lam-1} (((lam-n)/2) z^{n+1} + ((lam+n)/2) z^{n-1}),
         d2 f_n = r^{lam-1} ((i(n-lam)/2) z^{n+1} + (i(n+lam)/2) z^{n-1}),
    and x1 = r (z + 1/z)/2, x2 = r (z - 1/z)/(2i).
    """
    (a, b), (c, d) = X
    a, b, c, d = (as_scalar(x) for x in (a, b, c, d))
    lam = as_scalar(lam)
    # first slot coefficient a*x1 + c*x2, second b*x1 + d*x2 (row vector x X):
    # one slot per nonzero entry: (coefficient of z, of 1/z, partial derivative 1 or 2)
    slots = []
    for entry, plus, minus, deriv in ((a, HALF, HALF, 1), (c, NEG_HALF_I, HALF_I, 1),
                                      (b, HALF, HALF, 2), (d, NEG_HALF_I, HALF_I, 2)):
        if not entry.is_zero():
            slots.append((entry * plus, entry * minus, deriv))
    out: KFunction = {}
    for n, cn in f.items():
        ns = as_scalar(n)
        # r^{lam-1}-graded pieces of the partial derivatives
        up, down = (lam - ns) * HALF, (lam + ns) * HALF
        d1 = ((n + 1, up), (n - 1, down))
        d2 = ((n + 1, -(I * up)), (n - 1, I * down))
        for u_plus, u_minus, deriv in slots:
            dd = d1 if deriv == 1 else d2
            for s, u in ((1, u_plus), (-1, u_minus)):
                cu = cn * u
                for m, v in dd:
                    add_into(out, m + s, cu * v)
    return out


def x1x2_power(k: int) -> KFunction:
    """Exact K-type expansion of (x1 x2)^k, dropping the overall r^{2k}.

    x1 x2 = r^2 (z^2 - z^{-2}) / (4i), multiplied out as a Laurent polynomial.
    """
    base: KFunction = {2: Scalar(1) / (Scalar(4) * I), -2: Scalar(-1) / (Scalar(4) * I)}
    out: KFunction = {0: Scalar(1)}
    for _ in range(k):
        nxt: KFunction = {}
        for n, c in out.items():
            for m, d in base.items():
                add_into(nxt, n + m, c * d)
        out = nxt
    return out


def quarter_rotation_apply(k: int, f: KFunction) -> KFunction:
    """Rotation by k quarter turns: f(x . w^k) with w = [[0,1],[-1,0]].

    x . w = (-x2, x1) is the rotation phi -> phi + pi/2, so z^n picks up i^{kn}.
    """
    out: KFunction = {}
    for n, c in f.items():
        add_into(out, n, c * (I ** ((k * n) % 4)))
    return out
