"""Scalar arithmetic results against the validating constructor."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hch.scalars import Scalar

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
# real operands take the real branch of multiplication
gaussian = st.one_of(st.builds(Scalar, rationals), st.builds(Scalar, rationals, rationals))


def expected(a: Scalar, b: Scalar):
    """Every operation's value, with components computed by Fraction alone."""
    ar, ai, br, bi = a.re, a.im, b.re, b.im
    out = {
        "add": (ar + br, ai + bi),
        "sub": (ar - br, ai - bi),
        "mul": (ar * br - ai * bi, ar * bi + ai * br),
        "neg": (-ar, -ai),
        "conjugate": (ar, -ai),
    }
    n = br * br + bi * bi
    if n:
        out["div"] = ((ar * br + ai * bi) / n, (ai * br - ar * bi) / n)
    n = ar * ar + ai * ai
    if n:
        out["inverse"] = (ar / n, -ai / n)
    return out


def computed(a: Scalar, b: Scalar):
    out = {"add": a + b, "sub": a - b, "mul": a * b, "neg": -a,
           "conjugate": a.conjugate()}
    if not b.is_zero():
        out["div"] = a / b
    if not a.is_zero():
        out["inverse"] = a.inverse()
    return out


@settings(max_examples=200, deadline=None)
@given(gaussian, gaussian)
def test_arithmetic_results_are_validated_scalars(a, b):
    want = expected(a, b)
    got = computed(a, b)
    assert got.keys() == want.keys()
    for op, r in got.items():
        assert type(r.re) is Fraction and type(r.im) is Fraction, op
        ref = Scalar(*want[op])
        assert r == ref and hash(r) == hash(ref), op
        with pytest.raises(AttributeError):
            r.re = Fraction(0)
        with pytest.raises(AttributeError):
            r.im = Fraction(0)
        with pytest.raises(AttributeError):
            del r.re


@settings(max_examples=50, deadline=None)
@given(gaussian, st.integers(-20, 20))
def test_mixed_int_operands(a, k):
    assume(k != 0)
    for r, want in ((a + k, Scalar(a.re + k, a.im)), (k - a, Scalar(k - a.re, -a.im)),
                    (k * a, Scalar(a.re * k, a.im * k)),
                    (a / k, Scalar(a.re / k, a.im / k))):
        assert type(r.re) is Fraction and type(r.im) is Fraction
        assert r == want and hash(r) == hash(want)
