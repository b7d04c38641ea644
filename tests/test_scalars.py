"""Scalar arithmetic results against the validating constructor."""

import fractions
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from hch import schemas
from hch.poly import Poly
from hch.scalars import I, ONE, ZERO, Scalar, _ratio, as_scalar
from hch.sl2 import sl2_branching_report

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
    }
    n = br * br + bi * bi
    if n:
        out["div"] = ((ar * br + ai * bi) / n, (ai * br - ar * bi) / n)
    n = ar * ar + ai * ai
    if n:
        out["inverse"] = (ar / n, -ai / n)
    return out


def computed(a: Scalar, b: Scalar):
    out = {"add": a + b, "sub": a - b, "mul": a * b, "neg": -a}
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


# -- the three-int representation against the Fraction-pair model -----------


class Ref:
    """Reference model: a + b*i kept as two Fractions, with their arithmetic."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        if isinstance(x, Scalar):
            return Ref(x.re, x.im)
        return x if isinstance(x, Ref) else Ref(x)

    def __add__(self, o):
        o = Ref.of(o)
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = Ref.of(o)
        return Ref(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = Ref.of(o)
        return Ref(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __neg__(self):
        return Ref(-self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError
        return Ref(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * Ref.of(o).inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        out = Ref(1)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_json(self):
        return {"re": str(self.re), "im": str(self.im)}


def assert_matches(got, want: Ref):
    """got is a canonical Scalar equal to want, with the same hash and text."""
    assert type(got) is Scalar
    a, b, d = got._a, got._b, got._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (got.re, got.im) == (want.re, want.im)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    twin = Scalar(want.re, want.im)
    assert got == twin and hash(got) == hash(twin)
    assert repr(got) == repr(want) and got.to_json() == want.to_json()


big_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
any_rational = st.one_of(big_rationals, small_rationals, st.integers(-10**6, 10**6))
scalars = st.one_of(st.builds(Scalar, any_rational, any_rational),
                    st.builds(Scalar, any_rational),
                    st.builds(Scalar, st.integers(-30, 30), st.integers(-30, 30)))
# a Scalar, or a plain int or Fraction operand
operands = st.one_of(scalars, st.integers(-10**6, 10**6), big_rationals)


@settings(max_examples=300, deadline=None)
@given(operands, operands)
def test_operations_match_the_fraction_pair_model(x, y):
    assume(isinstance(x, Scalar) or isinstance(y, Scalar))
    rx, ry = Ref.of(x), Ref.of(y)
    assert_matches(x + y, rx + ry)
    assert_matches(x - y, rx - ry)
    assert_matches(x * y, rx * ry)
    if Ref.of(y).re or Ref.of(y).im:
        assert_matches(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    s, r = (x, rx) if isinstance(x, Scalar) else (y, ry)
    assert_matches(-s, -r)
    if s:
        assert_matches(s.inverse(), r.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            s.inverse()
    assert (s == x) == (r.re == rx.re and r.im == rx.im)


@settings(max_examples=100, deadline=None)
@given(scalars, st.integers(-5, 5))
def test_powers_match_the_fraction_pair_model(s, k):
    assume(k >= 0 or s)
    assert_matches(s ** k, Ref.of(s) ** k)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
       st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_gaussian_integer_arithmetic_stays_integral(a, b, c, e):
    x, y = Scalar(a, b), Scalar(c, e)
    for r in (x + y, x - y, x * y, -x, x ** 3):
        assert r._d == 1
    assert_matches(x * y, Ref(a, b) * Ref(c, e))


@pytest.mark.parametrize("re, im", [
    ("3/6", "-4/8"), ("0", "7/14"), ("-10/4", "0"), ("1000000/999999", "-2/1000000"),
    (Fraction(6, 4), "-5"), (12, Fraction(-9, 6)), ("0/5", "0/3"),
])
def test_string_and_mixed_inputs_are_canonical(re, im):
    assert_matches(Scalar(re, im), Ref(Fraction(re), Fraction(im)))


def test_equal_values_built_differently_hash_alike():
    half = Scalar("3/6", "-4/8")
    for other in (Scalar(Fraction(1, 2), Fraction(-1, 2)), (ONE - I) / 2,
                  Scalar("1/4", "-1/4") * 2, (ONE + I).inverse()):
        assert other == half and hash(other) == hash(half)
    assert ZERO == Scalar("0/7", "-0/3") == Scalar(5) - 5
    for z in (Scalar("0/7", "-0/3"), Scalar("1/3", 2) - Scalar("1/3", 2), Scalar(0, 5) * 0):
        assert (z._a, z._b, z._d) == (0, 0, 1)
    assert Scalar(3) == 3 and 3 == Scalar(3) and Scalar("1/2") == Fraction(1, 2)
    assert Scalar(3, 1) != 3 and Scalar("1/2") != Fraction(1, 3)


@settings(max_examples=100, deadline=None)
@given(rationals)
def test_real_scalars_and_constant_polys_hash_like_the_number(q):
    for number in (q, q.numerator) if q.denominator == 1 else (q,):
        s, p = Scalar(number), Poly.const(number)
        assert s == number and hash(s) == hash(number)
        assert {number: "a"}.get(s) == "a" and len({number, s}) == 1
        assert p == s and hash(p) == hash(s) and len({s, p}) == 1


def test_outside_input_is_checked():
    for bad in (0.5, None, 1j):
        with pytest.raises(TypeError):
            Scalar(bad)
        with pytest.raises(TypeError):
            as_scalar(bad)
    with pytest.raises(ValueError):
        Scalar("one half")
    s = Scalar(1, 2)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s == Scalar(1, 2)


def test_branching_report_constructs_no_fraction(monkeypatch):
    original = fractions.Fraction.__dict__["__new__"]
    outside = []

    def counting(cls, *args, **kwargs):
        caller = sys._getframe(1).f_code
        if not (caller.co_filename.endswith("scalars.py") and caller.co_name in ("re", "im")):
            outside.append(caller)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    report = sl2_branching_report(4, 0)
    assert report.dims == {0: 3, 1: 1}
    assert outside == []
    # the counter sees constructions: reading a component makes one
    assert Scalar(1, 2).re == 1 and outside == []
    Fraction(3)
    assert len(outside) == 1


# integer strings the fast path reads, and strings it must leave to Fraction
RATIO_CORPUS = ["007", "-0", "+3", " 3", "3_000", "\u0663", "\u00b2", "1/2", "1.5", "1e3", "",
                "-", "--1", "-007", "12", "1/0", "0/0", "-12/8", "3 ", "0x10", "-\u0663"]


def parsed(parse, s):
    """The value parse reads from s as a Fraction, or the type of what it raises."""
    try:
        out = parse(s)
    except Exception as e:  # the exception type is the result compared
        return type(e)
    return Fraction(*out) if isinstance(out, tuple) else out


@pytest.mark.parametrize("s", RATIO_CORPUS)
def test_rational_parser_agrees_with_fraction_on_the_corpus(s):
    assert parsed(_ratio, s) == parsed(Fraction, s)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789-+/._e \u0663\u00b2", max_size=8),
                 st.from_regex(r"-?[0-9]{1,40}", fullmatch=True),
                 st.fractions().map(str), st.text(max_size=6)))
def test_rational_parser_agrees_with_fraction(s):
    assert parsed(_ratio, s) == parsed(Fraction, s)


def test_integer_strings_construct_no_fraction(monkeypatch):
    made = []
    original = fractions.Fraction.__dict__["__new__"]
    monkeypatch.setattr(fractions.Fraction, "__new__",
                        staticmethod(lambda cls, *a, **k: made.append(a) or original(cls, *a, **k)))
    for read in (Scalar,
                 lambda re, im=None: schemas._scalar(re if im is None else {"re": re, "im": im}, "x")):
        made.clear()
        assert read("-007", "12") == Scalar(-7, 12)
        assert read("-0") == ZERO and made == []
        half = read("2/4")
        assert (half._a, half._b, half._d) == (1, 0, 2) and made[0] == ("2/4",)
