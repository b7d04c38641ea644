"""Gaussian rationals a + b*i with a, b in Q, the ground field of the package."""

from __future__ import annotations

from fractions import Fraction


_FRAC_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return _FRAC_ZERO if x == 0 else Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class Scalar:
    """An element of Q(i). Immutable; components kept in lowest terms by Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _frac(re))
        _set_im(self, _frac(im))

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    __delattr__ = __setattr__

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_scalar(other)
        return _of(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _of(-self.re, -self.im)

    def __sub__(self, other):
        other = as_scalar(other)
        return _of(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __mul__(self, other):
        other = as_scalar(other)
        if not self.im and not other.im:
            return _of(self.re * other.re, _FRAC_ZERO)
        return _of(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _of(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * as_scalar(other).inverse()

    def __rtruediv__(self, other):
        return as_scalar(other) * self.inverse()

    def conjugate(self) -> "Scalar":
        return _of(self.re, -self.im)

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
        return not self.re and not self.im

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = as_scalar(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    # -- display / serialization --------------------------------------------

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_json(self):
        return {"re": str(self.re), "im": str(self.im)}

    @staticmethod
    def from_json(obj) -> "Scalar":
        if isinstance(obj, dict):
            return Scalar(Fraction(obj.get("re", "0")), Fraction(obj.get("im", "0")))
        if isinstance(obj, (int, str)):
            return Scalar(Fraction(obj))
        raise TypeError(f"cannot parse scalar from {obj!r}")


_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def _of(re: Fraction, im: Fraction) -> Scalar:
    """Trusted constructor for components that are already Fractions.

    Arithmetic results take this path; it skips the coercion that
    ``Scalar(...)`` applies to outside input.
    """
    s = object.__new__(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot coerce {x!r} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
