"""The column-map matrix kernels against their coordinate-map references.

``Matrix`` stores one map {col: {row: Scalar}} with no zero entry and no
empty column.  Its product, column pick, transpose, block diagonal and the
Kronecker placer ``kron_into`` must equal the coordinate-map kernels kept in
``dense_reference`` on random sparse Q(i) matrices, including products whose
terms cancel exactly and shapes with no rows or no columns.  The identity
kernel ``vanishes`` must decide a sum of products and matrices as the
reference sum's ``is_zero`` does.  ``==`` and ``is_zero`` compare column
maps, so every builder must keep the storage invariant; the last tests walk
the matrices the builders make.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as ref
from hch import scalars
from hch.complexes import ComplexMap, cone, hom_complex, single_term
from hch.gkmodules import kron_into
from hch.hcomplexes import HComplexMap, check_h_axioms, h_cone, h_tensor
from hch.linalg import Matrix, vanishes
from hch.scalars import I, ONE, Scalar
from hch.sl2 import finite_irrep, principal_series, torus_pair
from test_hcomplexes import resolution_h

# mostly zeros, with integers, Gaussian integers and proper fractions
VALUES = [0] * 6 + [1, -1, 2, I, -I, Scalar(1, -1), Scalar(Fraction(1, 2)),
                    Scalar(0, Fraction(-2, 3)), Scalar(Fraction(3, 4), 1)]
dims = st.integers(0, 4)


def matrices(rows, cols):
    cells = st.lists(st.sampled_from(VALUES), min_size=rows * cols, max_size=rows * cols)
    return cells.map(lambda vs: Matrix(rows, cols, {(k // cols, k % cols): v
                                                    for k, v in enumerate(vs)}))


def assert_stored_exactly(m: Matrix):
    """No empty column, no zero entry, every index in range."""
    for c, col in m.columns.items():
        assert 0 <= c < m.cols and col, (c, col)
        for r, v in col.items():
            assert 0 <= r < m.rows and not v.is_zero(), (r, c, v)


@st.composite
def products(draw):
    """(a, b) with a.cols == b.rows; on request, a's last column repeats its
    first and b's last row is minus its first, so those terms cancel exactly."""
    r, k, c = draw(dims), draw(st.integers(0, 4)), draw(dims)
    a, b = draw(matrices(r, k)), draw(matrices(k, c))
    if k >= 2 and draw(st.booleans()):
        a = Matrix(r, k, {**{rc: v for rc, v in a.entries.items() if rc[1] != k - 1},
                          **{(i, k - 1): v for (i, j), v in a.entries.items() if j == 0}})
        b = Matrix(k, c, {**{rc: v for rc, v in b.entries.items() if rc[0] != k - 1},
                          **{(k - 1, j): -v for (i, j), v in b.entries.items() if i == 0}})
    return a, b


@settings(max_examples=200, deadline=None)
@given(pair=products())
def test_product_matches_the_coordinate_map_product(pair):
    a, b = pair
    got = a @ b
    assert got == ref.matmul(a, b)
    assert_stored_exactly(got)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=dims, cols=dims)
def test_column_pick_and_transpose_match_the_references(data, rows, cols):
    m = data.draw(matrices(rows, cols))
    # distinct columns: the reference keeps only the last place of a repeated one
    pick = data.draw(st.lists(st.integers(0, cols - 1), max_size=5, unique=True)) if cols else []
    for got, want in ((m.restrict_columns(pick), ref.restrict_columns(m, pick)),
                      (m.transpose(), ref.transpose(m)),
                      (m + m.scale(-1), Matrix.zeros(rows, cols)),
                      (m - m, Matrix.zeros(rows, cols))):
        assert got == want
        assert_stored_exactly(got)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), shapes=st.lists(st.tuples(dims, dims), max_size=4))
def test_block_diag_matches_the_reference(data, shapes):
    blocks = [data.draw(matrices(r, c)) for r, c in shapes]
    got = Matrix.block_diag(blocks)
    assert got == ref.block_diag(blocks)
    assert_stored_exactly(got)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 3), roff=st.integers(0, 2), coff=st.integers(0, 2),
       signs=st.sampled_from([(False,), (True,), (False, False), (False, True), (True, False)]),
       pick=st.sampled_from(["ab", "aI", "Ib", "II"]))
def test_kron_into_matches_the_coordinate_map_placer(data, n, roff, coff, signs, pick):
    a = n if pick[0] == "I" else data.draw(matrices(data.draw(dims), data.draw(dims)))
    b = n if pick[1] == "I" else data.draw(matrices(data.draw(dims), data.draw(dims)))
    factors = [m.columns for m in (a, b) if isinstance(m, Matrix)]
    before = [{c: dict(col) for c, col in f.items()} for f in factors]
    # the block is summed into what is there: a seed, and the block placed
    # once before, which a placement of the opposite sign cancels exactly
    seed = data.draw(matrices(roff + 3, coff + 3))
    columns = {c: dict(col) for c, col in seed.columns.items()}
    ents = dict(seed.entries)
    for negate in signs:
        kron_into(columns, a, b, roff, coff, negate)
        ref.kron_into(ents, a, b, roff, coff, negate)
    rows = 1 + max([seed.rows] + [r for r, _ in ents])
    cols = 1 + max([seed.cols] + [c for _, c in ents])
    got = Matrix._raw(rows, cols, columns)
    assert got == Matrix(rows, cols, ents)
    assert_stored_exactly(got)
    assert factors == before  # the factors' columns are read, never changed


# -- the identity kernel: a sum of products and matrices decided without forming it -----

THIRD, HALF = Scalar(Fraction(1, 3)), Scalar(Fraction(1, 2))
# denominators 1, 2 and 3, with and without i
SUM_VALUES = [0] * 6 + [1, -1, 2, I, -I, Scalar(1, -1), HALF, THIRD,
                        Scalar(0, Fraction(-2, 3)), Scalar(Fraction(1, 2), Fraction(1, 3))]
COEFFICIENTS = [1, -1, 2, I, HALF, -THIRD, Scalar(1, Fraction(1, 3))]


def sum_matrices(rows, cols):
    cells = st.lists(st.sampled_from(SUM_VALUES), min_size=rows * cols, max_size=rows * cols)
    return cells.map(lambda vs: Matrix(rows, cols, {(k // cols, k % cols): v
                                                    for k, v in enumerate(vs)}))


def reference_sum(rows, cols, terms):
    """The sum of the terms, each product by the coordinate-map reference."""
    out = Matrix.zeros(rows, cols)
    for s, *factors in terms:
        out = out + (ref.matmul(*factors) if len(factors) == 2 else factors[0]).scale(s)
    return out


@st.composite
def sums(draw):
    """(rows, cols, terms): one to three product terms and up to two plain
    terms; on request a last plain term closes the sum to zero, and then, on
    request, one entry of it moves by a random value."""
    rows, cols = draw(dims), draw(dims)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, 4))
        terms.append((draw(st.sampled_from(COEFFICIENTS)),
                      draw(sum_matrices(rows, k)), draw(sum_matrices(k, cols))))
    for _ in range(draw(st.integers(0, 2))):
        terms.append((draw(st.sampled_from(COEFFICIENTS)), draw(sum_matrices(rows, cols))))
    if draw(st.booleans()):
        close = reference_sum(rows, cols, terms).scale(-1)
        if rows and cols and draw(st.booleans()):
            rc = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))
            ents = dict(close.entries)
            ents[rc] = ents.get(rc, scalars.ZERO) + draw(st.sampled_from(SUM_VALUES))
            close = Matrix(rows, cols, ents)
        terms.append((1, close))
    return rows, cols, terms


@settings(max_examples=300, deadline=None)
@given(case=sums())
def test_vanishes_decides_as_the_reference_sum(case):
    rows, cols, terms = case
    assert vanishes(*terms) == reference_sum(rows, cols, terms).is_zero()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), r=dims, k=dims, c=dims)
def test_vanishes_on_built_zeros(data, r, k, c):
    a, b = data.draw(sum_matrices(r, k)), data.draw(sum_matrices(k, c))
    m = data.draw(sum_matrices(r, c))
    assert vanishes((1, a, b), (-1, a, b))
    assert vanishes((HALF, m), (HALF, m), (-1, m))
    # a third and two thirds of each entry, summed against the entry itself:
    # the cells meet denominators that differ
    assert vanishes((THIRD, a, b), (Scalar(Fraction(2, 3)), a, b), (-1, a, b))
    if r and c:
        one = Matrix(r, c, {(r - 1, c - 1): ONE})
        assert not vanishes((THIRD, a, b), (Scalar(Fraction(2, 3)), a, b), (-1, a, b), (THIRD, one))


def test_vanishes_on_no_terms_and_on_shape_mismatches():
    assert vanishes()
    a, b = Matrix.identity(2), Matrix.identity(3)
    with pytest.raises(ValueError, match="product"):
        vanishes((1, a, b))
    with pytest.raises(ValueError, match="addition"):
        vanishes((1, a, a), (1, b))
    with pytest.raises(ValueError, match="addition"):
        vanishes((1, a), (-1, Matrix.zeros(2, 3)))


def test_vanishes_builds_no_scalar_and_no_matrix(monkeypatch):
    a = Matrix.from_rows([[1, I, 0], [HALF, 0, -THIRD], [0, 2, Scalar(1, 1)]])
    square, minus_third = a @ a, -THIRD
    built = []
    of, raw = scalars._of, Matrix._raw
    monkeypatch.setattr(scalars, "_of", lambda *t: built.append("Scalar") or of(*t))
    monkeypatch.setattr(Matrix, "_raw", staticmethod(lambda *t: built.append("Matrix") or raw(*t)))
    monkeypatch.setattr(Matrix, "__init__", lambda *t: built.append("Matrix"))
    assert vanishes((1, a, a), (-1, square))
    assert vanishes((THIRD, a, a), (minus_third, square))
    assert not vanishes((1, a, a), (-2, square))
    assert built == []


# -- the storage invariant on what the builders make ---------------------------------


def built_matrices():
    """Every matrix of a resolution, an h-tensor, an h-cone, two Hom complexes
    and a band-module window, by name."""
    h = resolution_h("so2", 3)
    small = resolution_h("so2", 2)
    out = {}
    for name, hc in (("resolution", h), ("h_tensor", h_tensor(small, small)),
                     ("h_cone", h_cone(HComplexMap.identity_h(h)))):
        base = hc.base
        out.update({(name, "d", n): d for n, d in base.diffs.items()})
        out.update({(name, "i", t, n): m for t, per in hc.i_maps.items() for n, m in per.items()})
        out.update({(name, "rho", n, j): a for n, term in base.terms.items()
                    for j, a in enumerate(term.g_action)})
        out.update({(name, "w", n, t): w for n, term in base.terms.items()
                    for t, w in enumerate(term.defect(base.interior_cols(n)).maps)})
    # F2 -> F2 by the identity, as a two-term complex with d = 1
    two_term, _, _ = cone(ComplexMap.identity(single_term(finite_irrep(2, torus_pair()))))
    for name, hom in (("hom", hom_complex(small.base, two_term)),
                      ("hom_cone", hom_complex(two_term, two_term))):
        out.update({(name, "d", n): d for n, d in hom.diffs.items()})
    window = list(range(-6, 7, 2))
    for j, op in enumerate(principal_series(4, 0).module.band_ops):
        out[("band", j)] = op.windowed_matrix(window)[1]
    return out


def test_builders_store_no_empty_column_and_no_zero():
    found = built_matrices()
    assert {key[0] for key in found} == {"resolution", "h_tensor", "h_cone", "hom",
                                         "hom_cone", "band"}
    for key, m in found.items():
        try:
            assert_stored_exactly(m)
        except AssertionError as err:
            raise AssertionError(f"{key}: {err}") from None
        assert m - m == Matrix.zeros(m.rows, m.cols), key


def test_building_and_checking_change_no_input_column():
    """Builders sum into columns in place, and matrices share columns, so a
    builder must only change columns it made: its inputs stay as they were."""
    h = resolution_h("so2", 2)
    mats = [*h.base.diffs.values(), *(m for per in h.i_maps.values() for m in per.values()),
            *(a for term in h.base.terms.values() for a in term.g_action)]
    before = [{c: dict(col) for c, col in m.columns.items()} for m in mats]
    for built in (h_tensor(h, h), h_cone(HComplexMap.identity_h(h))):
        assert check_h_axioms(built).ok
    assert check_h_axioms(h).ok and h.base.homology().dims
    assert [m.columns for m in mats] == before
