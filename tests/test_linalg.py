import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hch.linalg import (
    Matrix,
    Subspace,
    add_into,
    cokernel_dim,
    column_space,
    kernel_basis,
    rank,
    solve,
    vec,
    vec_is_zero,
)
from hch.scalars import I, ONE, ZERO, Scalar


def test_scalar_field_ops():
    a = Scalar(Fraction(1, 2), Fraction(3, 4))
    b = Scalar(-2, 5)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == ONE
    assert I * I == Scalar(-1)
    assert (a - a).is_zero()


def test_scalar_json_roundtrip():
    a = Scalar(Fraction(-7, 3), Fraction(2, 9))
    assert Scalar.from_json(a.to_json()) == a


def test_rank_empty_and_identity():
    assert rank(Matrix(0, 0)) == 0
    assert rank(Matrix.identity(3)) == 3


def test_rank_dependent_rows():
    # second row = i * first row; determinant vanishes
    m = Matrix.from_rows([[ONE, I], [I, Scalar(-1)]])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert det.is_zero()
    assert rank(m) == 1


def test_kernel_trivial_cases():
    assert kernel_basis(Matrix.identity(2)) == []
    assert len(kernel_basis(Matrix.zeros(2, 3))) == 3
    [v] = kernel_basis(Matrix.from_rows([[1, -1]]))
    assert v == vec([1, 1])


def test_cokernel_dim():
    assert cokernel_dim(Matrix.identity(3)) == 0
    assert cokernel_dim(Matrix.zeros(2, 2)) == 2
    assert cokernel_dim(Matrix.from_rows([[1], [1]])) == 1


def test_solve():
    m = Matrix.from_rows([[1, 1], [0, 1]])
    x = solve(m, vec([3, 1]))
    assert x == vec([2, 1])
    assert solve(Matrix.zeros(1, 2), vec([1])) is None


def _random_sparse(rng, rows, cols):
    ents = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.35:
                ents[(r, c)] = Scalar(rng.randint(-4, 4), rng.randint(-2, 2))
    return Matrix(rows, cols, ents)


def test_rank_transpose_and_rank_nullity_random():
    rng = random.Random(20240817)
    for _ in range(100):
        rows = rng.randint(0, 8)
        cols = rng.randint(0, 8)
        m = _random_sparse(rng, rows, cols)
        r = rank(m)
        assert r == rank(m.transpose())
        kb = kernel_basis(m)
        assert cols == r + len(kb)
        for v in kb:
            assert vec_is_zero(m.apply(v))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=5))
def test_kernel_vectors_exact(rows):
    m = Matrix.from_rows(rows)
    for v in kernel_basis(m):
        assert vec_is_zero(m.apply(v))


def test_matmul_and_apply_agree():
    a = Matrix.from_rows([[1, 2], [0, I]])
    b = Matrix.from_rows([[1, 0], [3, -1]])
    v = vec([5, 7])
    assert (a @ b).apply(v) == a.apply(b.apply(v))


def test_subspace():
    s = Subspace(3)
    assert s.add(vec([1, 0, 1]))
    assert s.add(vec([0, 1, 0]))
    assert not s.add(vec([1, 1, 1]))
    assert s.dim == 2
    assert s.contains(vec([2, -3, 2]))
    assert not s.contains(vec([0, 0, 1]))



def _random_scalar(rng: random.Random) -> Scalar:
    im = rng.randint(-2, 2) if rng.random() < 0.4 else 0
    return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), im)


def _random_columns(rng: random.Random, rows: int, cols: int):
    """Sparse random columns, some zero and some combinations of earlier ones."""
    out = []
    for _ in range(cols):
        kind = rng.random()
        if kind < 0.15 or rows == 0:
            out.append((ZERO,) * rows)
        elif kind < 0.35 and out:
            a, b = rng.choice(out), rng.choice(out)
            ca, cb = _random_scalar(rng), _random_scalar(rng)
            out.append(tuple(ca * x + cb * y for x, y in zip(a, b)))
        else:
            out.append(tuple(_random_scalar(rng) if rng.random() < 0.4 else ZERO
                             for _ in range(rows)))
    return out


EMPTY_SHAPES = [(0, 3), (3, 0), (0, 0)]


@pytest.mark.parametrize("seed", range(len(EMPTY_SHAPES) + 30))
def test_column_space_matches_dense_subspace(seed):
    # the reduced echelon form of a span is unique, so both builds hold the same rows
    rng = random.Random(seed)
    if seed < len(EMPTY_SHAPES):
        rows, cols = EMPTY_SHAPES[seed]
    else:
        rows, cols = rng.randint(1, 8), rng.randint(1, 9)
    columns = _random_columns(rng, rows, cols)
    m = Matrix.from_columns(columns, rows=rows)
    sparse = column_space(m)
    dense = Subspace(m.rows, [m.column(c) for c in range(m.cols)])
    assert sparse.dim_ambient == dense.dim_ambient == rows
    assert sparse._pivots == dense._pivots
    assert sparse._rows == dense._rows
    assert sparse.dim == rank(m)
    for _ in range(10):
        v = tuple(_random_scalar(rng) for _ in range(rows))
        assert sparse.contains(v) == dense.contains(v)
        if columns:
            a, b = rng.choice(columns), rng.choice(columns)
            c = _random_scalar(rng)
            assert sparse.contains(tuple(x + c * y for x, y in zip(a, b)))

def test_add_into_drops_zeros_and_keeps_order():
    acc = {}
    add_into(acc, "a", Scalar(1))
    add_into(acc, "b", Scalar(2))
    add_into(acc, "z", ZERO)
    add_into(acc, "c", Scalar(3))
    assert list(acc) == ["a", "b", "c"]
    add_into(acc, "a", Scalar(4))      # an updated key keeps its place
    assert list(acc.items()) == [("a", Scalar(5)), ("b", Scalar(2)), ("c", Scalar(3))]
    add_into(acc, "b", Scalar(-2))     # a key that sums to zero is dropped
    assert list(acc) == ["a", "c"]
    add_into(acc, "b", I)              # and comes back at the end
    assert list(acc.items()) == [("a", Scalar(5)), ("c", Scalar(3)), ("b", I)]
    assert all(not v.is_zero() for v in acc.values())


def test_scale_by_plus_or_minus_one_multiplies_nothing():
    m = Matrix.from_rows([[1, I], [0, Scalar(Fraction(-2, 3))]])
    assert m.scale(1) is m and m.scale(ONE) is m
    neg = Matrix.from_rows([[-1, -I], [0, Scalar(Fraction(2, 3))]])
    assert m.scale(-1) == -m == neg
    assert m - m == Matrix.zeros(2, 2) and (m - m).entries == {}
    assert m - neg == m.scale(2)
    assert m.scale(0) == Matrix.zeros(2, 2)


def test_matrix_json_roundtrip():
    m = Matrix.from_rows([[1, I], [0, Scalar(Fraction(1, 3))]])
    assert Matrix.from_json(m.to_json()) == m
