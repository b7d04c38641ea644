import math
import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hch.linalg import (
    P,
    SQRT_MINUS_ONE,
    Matrix,
    Subspace,
    add_into,
    cokernel_dim,
    column_space,
    kernel_basis,
    rank,
    rank_mod_p,
    solve,
    sparse_columns,
)
from hch.liepairs import DiagGroup, LieAlgebra, Pair
from hch.scalars import I, ONE, ZERO, Scalar
from hch.schemas import load_finite_module
from dense_reference import apply, as_map, column, from_columns, vec, vec_is_zero


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
            assert vec_is_zero(apply(m, v))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=5))
def test_kernel_vectors_exact(rows):
    m = Matrix.from_rows(rows)
    for v in kernel_basis(m):
        assert vec_is_zero(apply(m, v))


def test_matmul_and_apply_agree():
    a = Matrix.from_rows([[1, 2], [0, I]])
    b = Matrix.from_rows([[1, 0], [3, -1]])
    v = vec([5, 7])
    assert apply(a @ b, v) == apply(a, apply(b, v))


def test_subspace():
    s = Subspace(3)
    assert s.add(as_map(vec([1, 0, 1])))
    assert s.add(as_map(vec([0, 1, 0])))
    assert not s.add(as_map(vec([1, 1, 1])))
    assert s.dim == 2
    assert s.contains(as_map(vec([2, -3, 2])))
    assert not s.contains(as_map(vec([0, 0, 1])))



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
    m = from_columns(columns, rows=rows)
    sparse = column_space(m)
    dense = Subspace(m.rows, [as_map(column(m, c)) for c in range(m.cols)])
    assert sparse.dim_ambient == dense.dim_ambient == rows
    assert sparse._rows == dense._rows  # pivot column -> reduced row
    assert sparse.dim == rank(m)
    for _ in range(10):
        v = tuple(_random_scalar(rng) for _ in range(rows))
        assert sparse.contains(as_map(v)) == dense.contains(as_map(v))
        if columns:
            a, b = rng.choice(columns), rng.choice(columns)
            c = _random_scalar(rng)
            assert sparse.contains(as_map(tuple(x + c * y for x, y in zip(a, b))))

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
    # read back as the one action matrix of a module over a 1-dimensional pair
    m = Matrix.from_rows([[1, I], [0, Scalar(Fraction(1, 3))]])
    K = DiagGroup()
    pair = Pair(LieAlgebra(1), K, [K.zero_char()])
    doc = {"k_weights": [{}, {}], "g_action": [m.to_json()]}
    assert load_finite_module(pair, doc).g_action == [m]


# -- the column-indexed elimination against the scanning one it replaced ---------


def scanning_rref(rows, ncols):
    """The elimination before the column index: every live row is scanned for
    every column, both to find the pivot and to eliminate."""
    pivots = []
    top = 0
    live = [r for r in rows if r]
    for col in range(ncols):
        best = None
        for k in range(top, len(live)):
            if col in live[k]:
                key = (len(live[k]), k)
                if best is None or key < best[0]:
                    best = (key, k)
        if best is None:
            continue
        k = best[1]
        live[top], live[k] = live[k], live[top]
        inv = live[top][col].inverse()
        prow = live[top] = {c: inv * v for c, v in live[top].items()}
        for k, other in enumerate(live):
            coeff = other.get(col)
            if coeff is not None and k != top:
                for c, v in prow.items():
                    add_into(other, c, -coeff * v)
        pivots.append(col)
        top += 1
        if top == len(live):
            break
    return live[:top], pivots


def _cancelling_rows(rng, rows, cols):
    """Rows of which later ones are combinations of earlier ones, some nudged by
    one entry, so that entries cancel and rows vanish during elimination."""
    out = []
    for _ in range(rows):
        if len(out) >= 2 and rng.random() < 0.6:
            a, b = rng.sample(out, 2)
            ca, cb = _random_scalar(rng), _random_scalar(rng)
            row = {c: ca * a.get(c, ZERO) + cb * b.get(c, ZERO) for c in set(a) | set(b)}
            if rng.random() < 0.5:
                row[rng.randrange(cols)] = _random_scalar(rng)
        else:
            row = {c: _random_scalar(rng) for c in range(cols) if rng.random() < 0.4}
        out.append({c: v for c, v in row.items() if not v.is_zero()})
    return out


def differential_cases():
    """(name, matrix): the degenerate shapes, 30 random sparse Q(i) matrices,
    8 square ones (most of them invertible) and 15 whose rows cancel during
    elimination."""
    yield "0x4", Matrix(0, 4)
    yield "4x0", Matrix(4, 0)
    yield "0x0", Matrix(0, 0)
    yield "zero 3x5", Matrix.zeros(3, 5)
    for seed in range(30):
        rng = random.Random(7000 + seed)
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = from_columns(_random_columns(rng, rows, cols), rows=rows)
        yield f"random {seed}", m
    for seed in range(8):
        rng = random.Random(9000 + seed)
        n = rng.randint(1, 7)
        ents = {(r, c): _random_scalar(rng) for r in range(n) for c in range(n)
                if r == c or rng.random() < 0.4}
        yield f"square {seed}", Matrix(n, n, ents)
    for seed in range(15):
        rng = random.Random(8000 + seed)
        rows, cols = rng.randint(2, 9), rng.randint(1, 8)
        ents = {(r, c): v for r, row in enumerate(_cancelling_rows(rng, rows, cols))
                for c, v in row.items()}
        yield f"cancelling {seed}", Matrix(rows, cols, ents)


DIFFERENTIAL_CASES = list(differential_cases())


def test_differential_cases_cancel_rows_and_invert():
    ranks = [(rank(m), m.rows) for name, m in DIFFERENTIAL_CASES if name.startswith("cancelling")]
    assert sum(r < rows for r, rows in ranks) >= 10
    square = [rank(m) == m.rows for _, m in DIFFERENTIAL_CASES if m.rows == m.cols]
    assert sum(square) >= 5 and not all(square)


@pytest.mark.parametrize("name, m", DIFFERENTIAL_CASES, ids=[n for n, _ in DIFFERENTIAL_CASES])
def test_rref_matches_the_scanning_elimination(name, m, monkeypatch):
    import hch.linalg as linalg

    def rows_of(mat):
        out = [dict() for _ in range(mat.rows)]
        for (r, c), v in mat.entries.items():
            out[r][c] = v
        return out

    got_rows, got_pivots = linalg._rref(rows_of(m), m.cols)
    ref_rows, ref_pivots = scanning_rref(rows_of(m), m.cols)
    assert got_pivots == ref_pivots
    assert got_rows == ref_rows

    rng = random.Random(name)
    b_free = tuple(_random_scalar(rng) for _ in range(m.rows))
    x = tuple(_random_scalar(rng) for _ in range(m.cols))
    b_image = apply(m, x)

    def everything():
        out = {"rank": linalg.rank(m), "kernel": linalg.kernel_basis(m),
               "solve": (linalg.solve(m, b_free), linalg.solve(m, b_image)),
               "column_space": linalg.column_space(m)._rows}
        if m.rows == m.cols:
            try:
                out["inverse"] = linalg.inverse(m)
            except ValueError as e:
                out["inverse"] = str(e)
        return out

    got = everything()
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_rref", scanning_rref)
        ref = everything()
    assert got == ref
    assert got["solve"][1] is not None and apply(m, got["solve"][1]) == b_image


# -- the rank mod P, a lower bound for the rank over Q(i) ---------------------------


def test_modulus_is_a_prime_one_mod_four_with_a_square_root_of_minus_one():
    assert P < 2 ** 30 and P % 4 == 1
    assert all(P % q for q in range(2, math.isqrt(P) + 1))
    assert SQRT_MINUS_ONE ** 2 % P == P - 1


def test_residue_is_a_ring_map():
    rng = random.Random(11)
    for _ in range(200):
        x, y = _random_scalar(rng), _random_scalar(rng)
        rx, ry = x.residue(P, SQRT_MINUS_ONE), y.residue(P, SQRT_MINUS_ONE)
        assert (x + y).residue(P, SQRT_MINUS_ONE) == (rx + ry) % P
        assert (x * y).residue(P, SQRT_MINUS_ONE) == rx * ry % P
    assert I.residue(P, SQRT_MINUS_ONE) == SQRT_MINUS_ONE


@pytest.mark.parametrize("name, m", DIFFERENTIAL_CASES, ids=[n for n, _ in DIFFERENTIAL_CASES])
def test_rank_mod_p_is_the_rank_on_the_differential_cases(name, m):
    # a lower bound in general, and equal to the rank on every case here
    by_cols, by_rows = rank_mod_p(sparse_columns(m)), rank_mod_p(sparse_columns(m.transpose()))
    assert by_cols == by_rows == rank(m)


def test_rank_mod_p_is_only_a_lower_bound():
    # P is a unit over Q(i) and zero mod P; the second determinant is P
    for rows in ([[P]], [[1, 1], [1, 1 + P]]):
        m = Matrix.from_rows(rows)
        assert rank_mod_p(sparse_columns(m)) == rank(m) - 1


@pytest.mark.parametrize("d", [P, 2 * P, P * P])
def test_rank_mod_p_is_undefined_on_a_denominator_p(d):
    m = Matrix.from_rows([[1, 0], [0, Scalar(Fraction(3, d), 1)]])
    assert rank_mod_p(sparse_columns(m)) is None
    assert Scalar(Fraction(1, d)).residue(P, SQRT_MINUS_ONE) is None
