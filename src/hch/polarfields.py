"""Exact symbolic action of 2x2 matrix vector fields on homogeneous functions.

Functions are finite combinations sum_n c_n r^lam z^n with z = e^{i phi}; the
right-translation vector field of a 2x2 matrix X acts via

    (X f)(x) = d/dt f(x exp(tX)) |_{t=0} = (x X) . grad f,

and everything (cos phi, sin phi, x_1, x_2, the polar derivatives) is a
Laurent polynomial in z over Q(i) times a power of r, so the result is again
a combination of r^lam z^m with exact coefficients.  Used to derive K-type
band tables from first principles instead of trusting hand algebra.

The sums run on Gaussian-integer cells [re, im, den] read from the canonical
triples of the inputs, as ``linalg.vanishes`` and ``Poly.__call__`` do: the
only Scalars built are the nonzero output coefficients.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, List, Tuple

from .scalars import Scalar, _reduced, triple

# a K-finite function is a sparse map {n: c_n} standing for sum c_n r^lam z^n
KFunction = Dict[int, Scalar]


def vector_field_apply(X: Tuple[Tuple, Tuple], lam, f: KFunction) -> KFunction:
    """Apply the vector field of X = [[a,b],[c,d]] to f, both exact.

    Uses d1 f_n = r^{lam-1} (((lam-n)/2) z^{n+1} + ((lam+n)/2) z^{n-1}),
         d2 f_n = r^{lam-1} ((i(n-lam)/2) z^{n+1} + (i(n+lam)/2) z^{n-1}),
    and x1 = r (z + 1/z)/2, x2 = r (z - 1/z)/(2i).  The first slot
    a*x1 + c*x2 of the row vector x X carries (a - ic)/2 on z and (a + ic)/2
    on 1/z, the second b*x1 + d*x2 likewise (b -+ id)/2.  Multiplied out:

        X f_n = (lam - n) (a - d - i(b + c))/4  f_{n+2}
              + (lam (a + d) + i n (b - c))/2   f_n
              + (lam + n) (a - d + i(b + c))/4  f_{n-2}.

    Every sum is formed on ints over the common denominator 4 * den(lam) *
    lcm(den(a), .., den(d)) * lcm(den(c_n)), and a coefficient that sums to
    zero is dropped.
    """
    cells = [triple(x) for row in X for x in row]
    dx = lcm(*[q for _, _, q in cells])
    (ar, ai), (br, bi), (cr, ci), (dr, di) = [(p * (dx // q), s * (dx // q)) for p, s, q in cells]
    lr, li, ld = triple(lam)
    # numerators over dx of a - d -+ i(b + c), 2(a + d) and 2i(b - c)
    mr, mi, pr, pi = ar - dr, ai - di, br + cr, bi + ci
    up_r, up_i, down_r, down_i = mr + pi, mi - pr, mr - pi, mi + pr
    sr, si, tr, ti = 2 * (ar + dr), 2 * (ai + di), 2 * (ci - bi), 2 * (br - cr)
    # each shift's coefficient of f_n is u + n * v with Gaussian-integer u, v
    # over 4 * ld * dx: (lam -+ n) times the up / down factor, and the middle one
    shifts = ((2, lr * up_r - li * up_i, lr * up_i + li * up_r, -ld * up_r, -ld * up_i),
              (0, lr * sr - li * si, lr * si + li * sr, ld * tr, ld * ti),
              (-2, lr * down_r - li * down_i, lr * down_i + li * down_r, ld * down_r, ld * down_i))
    den = lcm(*[cn._d for cn in f.values()])
    acc: Dict[int, List[int]] = {}
    for n, cn in f.items():
        k = den // cn._d
        ca, cb = cn._a * k, cn._b * k
        for s, ur, ui, vr, vi in shifts:
            x, y = ur + n * vr, ui + n * vi
            if cb or ca != 1:
                x, y = x * ca - y * cb, x * cb + y * ca
            cell = acc.setdefault(n + s, [0, 0])
            cell[0] += x
            cell[1] += y
    den *= 4 * ld * dx
    return {m: _reduced(x, y, den) for m, (x, y) in acc.items() if x or y}
