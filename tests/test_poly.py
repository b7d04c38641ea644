"""Exact interpolation: the Newton form against a Lagrange reference."""

from hypothesis import given, settings, strategies as st
import pytest

from hch.poly import Poly, interpolate
from hch.scalars import ONE, Scalar

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
gaussian = st.builds(Scalar, rationals, rationals)


def lagrange(points) -> Poly:
    """sum_i y_i prod_{j != i} (n - x_j) / (x_i - x_j), multiplied out."""
    out = Poly()
    for i, (xi, yi) in enumerate(points):
        term = Poly.const(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = term * Poly([-xj, ONE]) * (xi - xj).inverse()
        out = out + term
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(gaussian, gaussian), max_size=8,
                unique_by=lambda pt: pt[0]))
def test_newton_matches_lagrange(points):
    p = interpolate(points)
    assert p == lagrange(points)
    assert p.degree <= len(points) - 1
    for x, y in points:
        assert p(x) == y


@settings(max_examples=30, deadline=None)
@given(st.lists(gaussian, min_size=1, max_size=7), st.data())
def test_repeated_node_raises(xs, data):
    dup = data.draw(st.sampled_from(xs))
    pos = data.draw(st.integers(0, len(xs)))
    nodes = xs[:pos] + [dup] + xs[pos:]
    ys = data.draw(st.lists(gaussian, min_size=len(nodes), max_size=len(nodes)))
    with pytest.raises(ZeroDivisionError):
        interpolate(list(zip(nodes, ys)))


def test_empty_input_is_the_zero_polynomial():
    assert interpolate([]).is_zero()
    assert interpolate([]) == Poly()


def test_integer_samples_of_an_affine_coefficient():
    # integer nodes of step 2 with values 3n/2 - 1, the shape the band derivation
    # interpolates (it reads three nodes, parity + 2t for |t| <= 1; here seven)
    pts = [(n, Scalar(3 * n) / 2 - 1) for n in range(-6, 8, 2)]
    assert interpolate(pts) == Poly([Scalar(-1), Scalar(3) / 2])
