"""Univariate polynomials over Q(i), used for band-operator coefficients.

A band coefficient is a polynomial in the K-type index n; identities between
band operators reduce to identities of these polynomials, so equality checks
here are exact and decidable.
"""

from __future__ import annotations

from typing import List, Sequence

from .scalars import ONE, ZERO, Scalar, _reduced, as_scalar, triple


class Poly:
    """Polynomial sum_k c_k n^k with coefficients in Q(i)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs: List[Scalar] = cs

    @staticmethod
    def const(c) -> "Poly":
        return Poly([as_scalar(c)])

    @staticmethod
    def x() -> "Poly":
        return Poly([ZERO, ONE])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Scalar)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        # a constant hashes like the Scalar it equals
        cs = self.coeffs
        if len(cs) < 2:
            return hash(cs[0] if cs else ZERO)
        return hash(tuple(cs))

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([
            (self.coeffs[k] if k < len(self.coeffs) else ZERO)
            + (other.coeffs[k] if k < len(other.coeffs) else ZERO)
            for k in range(n)
        ])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def shift(self, t: int) -> "Poly":
        """The polynomial n -> p(n + t)."""
        out = Poly()
        power = Poly.const(1)
        base = Poly([as_scalar(t), ONE])
        for c in self.coeffs:
            out = out + power * c
            power = power * base
        return out

    def __call__(self, n) -> Scalar:
        cs = self.coeffs
        if len(cs) < 2:
            return cs[0] if cs else ZERO
        # Horner on the int cell (a + b*i)/d at n = (p + q*i)/r; one Scalar at the end
        p, q, r = triple(n)
        top = cs[-1]
        a, b, d = top._a, top._b, top._d
        for c in cs[-2::-1]:
            a, b, d = a * p - b * q, a * q + b * p, d * r
            e = c._d
            if e == d:
                a, b = a + c._a, b + c._b
            else:
                a, b, d = a * e + c._a * d, b * e + c._b * d, d * e
        return _reduced(a, b, d)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(repr(c))
            elif k == 1:
                parts.append(f"({c!r})*n")
            else:
                parts.append(f"({c!r})*n^{k}")
        return " + ".join(parts)


def interpolate(points) -> Poly:
    """Interpolation through (x, y) pairs with distinct x, exact.

    Newton divided differences c_j = f[x_0..x_j], expanded to monomial
    coefficients by nested multiplication c_j + (n - x_j) * (...): O(k^2)
    scalar operations for k points.  The interpolant is unique, so this is
    the Lagrange polynomial.  A repeated x raises ZeroDivisionError.
    """
    pts = [(as_scalar(x), as_scalar(y)) for x, y in points]
    xs = [x for x, _ in pts]
    c = [y for _, y in pts]
    k = len(pts)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    coeffs: List[Scalar] = []
    for j in range(k - 1, -1, -1):
        # coeffs <- coeffs * (n - x_j) + c_j
        xj = xs[j]
        coeffs = [ZERO] + coeffs
        for m in range(len(coeffs) - 1):
            coeffs[m] = coeffs[m] - xj * coeffs[m + 1]
        coeffs[0] = coeffs[0] + c[j]
    return Poly(coeffs)


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Scalar)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {x!r} to Poly")
