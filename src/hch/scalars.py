"""Gaussian rationals a + b*i with a, b in Q, the ground field of the package.

A ``Scalar`` keeps three Python ints ``(a, b, d)`` and stands for
(a + b*i)/d. The triple is canonical: d > 0 and gcd(a, b, d) = 1, so zero is
``(0, 0, 1)`` and equal values have equal triples (equality and hashing
compare the triple). Arithmetic works on the ints alone. When both operands
have d = 1 (Gaussian integers, the usual case in resolution, Hom and tensor
matrices) the result is stored as computed; otherwise one normalizer divides
by ``math.gcd(a, b, d)``. ``re`` and ``im`` are read-only ``Fraction`` views,
built on each read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional


def _ratio(x):
    """``(numerator, denominator)`` of outside input: int, Fraction or string.

    A string of ASCII digits with an optional leading ``-`` is read by ``int``;
    any other string is read by ``Fraction``, which accepts or rejects it.
    """
    if isinstance(x, int):
        return x, 1
    if isinstance(x, str):
        digits = x[1:] if x[:1] == "-" else x
        if digits.isdigit() and digits.isascii():
            return int(x), 1
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot coerce {x!r} to a rational")


class Scalar:
    """An element of Q(i). Immutable; kept as the canonical triple (a, b, d)."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        p, q = _ratio(re)
        s, t = _ratio(im)
        return _reduced(p * t, s * q, q * t)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    __delattr__ = __setattr__

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        d, e = self._d, other._d
        if d == e:
            if d == 1:
                return _of(self._a + other._a, self._b + other._b, 1)
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _of(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        d, e = self._d, other._d
        if d == e:
            if d == 1:
                return _of(self._a - other._a, self._b - other._b, 1)
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if b or e:
            re, im = a * c - b * e, a * e + b * c
        else:
            re, im = a * c, 0
        if d == 1:
            return _of(re, im, 1)
        return _reduced(re, im, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * as_scalar(other).inverse()

    def __rtruediv__(self, other):
        return as_scalar(other) * self.inverse()

    def residue(self, p: int, root: int) -> Optional[int]:
        """(a + b*root)/d mod p, the image of self under the ring map to Z/p that
        sends i to root (root**2 = -1 mod p); None when p divides d."""
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return (a + b * root) % p
        if d % p == 0:
            return None
        return (a + b * root) * pow(d, -1, p) % p

    def abs_ceil(self) -> int:
        """The least integer >= (|a| + |b|)/d, an upper bound on |self|."""
        return -(-(abs(self._a) + abs(self._b)) // self._d)

    def conjugate(self) -> "Scalar":
        return _of(self._a, -self._b, self._d)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if other.__class__ is Scalar or isinstance(other, (int, Fraction)):
            other = as_scalar(other)
            return self._a == other._a and self._b == other._b and self._d == other._d
        return NotImplemented

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    # -- display / serialization --------------------------------------------

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def to_json(self):
        return {"re": str(self.re), "im": str(self.im)}

    @staticmethod
    def from_json(obj) -> "Scalar":
        if isinstance(obj, dict):
            return Scalar(obj.get("re", 0), obj.get("im", 0))
        if isinstance(obj, (int, str)):
            return Scalar(obj)
        raise TypeError(f"cannot parse scalar from {obj!r}")


_set_a = Scalar._a.__set__
_set_b = Scalar._b.__set__
_set_d = Scalar._d.__set__
_new = object.__new__


def _of(a: int, b: int, d: int) -> Scalar:
    """Trusted constructor for a triple that is already canonical.

    Arithmetic results take this path; it skips the coercion that
    ``Scalar(...)`` applies to outside input.
    """
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d, made canonical: d > 0, gcd(a, b, d) = 1; d must be nonzero."""
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _of(a, b, d)


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return _of(x, 0, 1)
    if isinstance(x, Fraction):
        return _of(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {x!r} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
