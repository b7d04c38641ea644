"""The int-cell band oracle against its Scalar references.

``polarfields.vector_field_apply`` and ``Poly.__call__`` sum on
[re, im, den] int cells and build one Scalar per nonzero result.  Both must
equal the Scalar routines kept in ``dense_reference``: on matrix entries and
lambdas over Q(i) with denominators 1, 2 and 3, on functions of several
K-types whose contributions cancel, and on polynomials of degree -1 to 3.
The last tests count what they build.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import dense_reference as ref
from hch import polarfields, poly, scalars
from hch.polarfields import vector_field_apply
from hch.poly import Poly
from hch.scalars import I, ONE, ZERO, Scalar
from hch.sl2 import E_MAT, F_MAT, H_MAT, KAPPA_MAT

rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
gaussians = st.builds(Scalar, rationals, rationals)
# an entry as the kernels meet it: an int, a Fraction or a Scalar, often zero
entries = st.one_of(st.just(0), st.integers(-3, 3), rationals, gaussians)
matrices = st.one_of(st.sampled_from([H_MAT, E_MAT, F_MAT, KAPPA_MAT]),
                     st.tuples(st.tuples(entries, entries), st.tuples(entries, entries)))
lambdas = st.one_of(st.integers(-8, 8), rationals, gaussians)
indices = st.integers(-12, 12)


@settings(max_examples=300, deadline=None)
@given(X=matrices, lam=lambdas,
       f=st.dictionaries(indices, gaussians.filter(bool), max_size=4))
def test_vector_field_apply_matches_the_scalar_reference(X, lam, f):
    assert vector_field_apply(X, lam, f) == ref.vector_field_apply(X, lam, f)


@settings(max_examples=200, deadline=None)
@given(X=matrices, lam=lambdas, n=indices, c=gaussians.filter(bool),
       step=st.sampled_from([2, 4]), spread=gaussians)
def test_vector_field_apply_drops_the_coefficients_that_cancel(X, lam, n, c, step, spread):
    """f = c f_n + c' f_{n+step} with c' chosen so that the two images cancel
    on f_{n+step-2}, the one K-type both reach; a third K-type whose
    coefficient has another denominator joins the sum far off."""
    m = n + step - 2
    u = ref.vector_field_apply(X, lam, {n: c}).get(m)
    v = ref.vector_field_apply(X, lam, {n + step: ONE}).get(m)
    assume(u is not None and v is not None)
    f = {n: c, n + step: -u / v}
    if spread:
        f[n + 40] = spread
    out = vector_field_apply(X, lam, f)
    assert m not in out
    assert out == ref.vector_field_apply(X, lam, f)


def test_vector_field_apply_on_the_zero_field_and_the_zero_function():
    assert vector_field_apply(((0, 0), (0, 0)), Scalar(1, 2), {3: ONE}) == {}
    assert vector_field_apply(H_MAT, 5, {}) == {}
    # kappa rotates: kappa f_n = i n f_n, and f_0 is killed
    assert vector_field_apply(KAPPA_MAT, Scalar(0, 1), {-3: ONE, 0: ONE, 4: I}) == \
        {-3: Scalar(0, -3), 4: Scalar(-4)}


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(st.one_of(st.just(0), st.integers(-3, 3), gaussians), max_size=4),
       n=indices, z=gaussians)
def test_poly_evaluation_matches_scalar_horner(coeffs, n, z):
    p = Poly(coeffs)
    assert -1 <= p.degree <= 3
    assert p(n) == ref.poly_at(p, n)
    assert p(z) == ref.poly_at(p, z)
    assert p(Fraction(n, 3)) == ref.poly_at(p, Fraction(n, 3))


def _count_built(monkeypatch):
    """Record every Scalar built and every Scalar sum, product or coercion."""
    seen = []
    of = scalars._of
    monkeypatch.setattr(scalars, "_of", lambda *t: seen.append("Scalar") or of(*t))
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        op = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name, lambda s, o, op=op, name=name: seen.append(name) or op(s, o))
    for mod in (scalars, poly, polarfields):
        if hasattr(mod, "as_scalar"):
            conv = mod.as_scalar
            monkeypatch.setattr(mod, "as_scalar", lambda x, conv=conv: seen.append("as_scalar") or conv(x))
    return seen


def test_vector_field_apply_builds_one_scalar_per_coefficient(monkeypatch):
    X = ((Scalar(Fraction(1, 2), 1), Fraction(-2, 3)), (I, 3))
    lam = Scalar(Fraction(5, 3), Fraction(-1, 2))
    f = {0: ONE, 2: Scalar(Fraction(1, 3), 2), 7: Scalar(0, Fraction(-1, 2))}
    want = ref.vector_field_apply(X, lam, f)
    seen = _count_built(monkeypatch)
    out = vector_field_apply(X, lam, f)
    assert seen == ["Scalar"] * len(out)
    assert out == want and len(out) == 7


def test_poly_evaluation_builds_one_scalar(monkeypatch):
    p = Poly([Scalar(Fraction(1, 2), 1), Scalar(0, Fraction(-2, 3)), 3, Fraction(1, 6)])
    zero, const = Poly(), Poly([I])
    args = list(range(-4, 5)) + [Fraction(-5, 3), Scalar(Fraction(1, 2), -2), I]
    want = [ref.poly_at(p, n) for n in args]
    seen = _count_built(monkeypatch)
    got = [p(n) for n in args]
    assert seen == ["Scalar"] * len(args)
    seen.clear()
    # degree -1 and 0 return a stored Scalar
    ends = zero(3), const(Fraction(1, 2))
    assert seen == []
    assert got == want and ends == (ZERO, I)
