"""The two span routines, and the cycles-modulo-boundaries questions built on them.

The reference functions below are the hand-rolled versions that
``coinvariants``, ``Pair.complement`` (read in dense form through the test
helper ``p_complement``) and ``check_exactness`` replaced: each
scattered, reduced and tested membership on its own.  A reduced echelon span
is unique, so the routines built on ``independent_over`` and ``kernel_on``
must return the same representatives and the same violation lists.  The
rank count that ``Complex.homology`` tries first is checked against the same
reference, and against the elimination-only homology loop on random
complexes: what it certifies must be exact, and the reports must agree.
"""

import random
from fractions import Fraction

import pytest

from hch import complexes
from hch.complexes import Complex, NotAComplexError, plain_space, trivial_pair
from hch.gkmodules import restrict_module, trivial_module
from hch.liepairs import DiagGroup, LieAlgebra, Pair, SubpairEmbedding, ValidationReport
from hch.linalg import (
    P,
    Matrix,
    Subspace,
    add_into,
    column_space,
    dense,
    independent_over,
    inverse,
    kernel_basis,
    kernel_on,
    rank_mod_p,
    sparse_columns,
)
from hch.relhomology import coinvariants, rel_homology
from hch.reports import HomologyReport
from hch.resolution import StandardResolution
from hch.scalars import ZERO, Scalar
from hch.sl2 import (
    SUBPAIR_CATALOG,
    finite_irrep,
    finite_irrep_so2,
    so2_pair,
    torus_pair,
    trivial_k_pair,
)
from test_complexes import random_complex
from test_resolution import sl2_sum_pair
from dense_reference import apply, as_map, column, from_columns, p_complement, unit_vec

# -- the replaced routines, kept as references -----------------------------------


def ref_independent_over(ambient, base, candidates):
    space = Subspace(ambient, [as_map(b) for b in base])
    out = []
    for v in candidates:
        if space.add(as_map(v)):
            out.append(v)
    return out


def ref_coinvariants(M, h_basis):
    zero = M.pair.K.zero_char()
    kept = [k for k in range(M.dim) if M.k_weights[k] == zero]
    index = {k: i for i, k in enumerate(kept)}
    images = []
    for eta in h_basis:
        act = None
        for l, a in enumerate(eta):
            if a.is_zero():
                continue
            m = M.g_action[l].scale(a)
            act = m if act is None else act + m
        if act is None:
            continue
        for k in range(M.dim):
            col = column(act, k)
            v = [ZERO] * len(kept)
            for r, x in enumerate(col):
                if not x.is_zero() and r in index:
                    v[index[r]] = x
            images.append(tuple(v))
    return ref_independent_over(len(kept), images,
                                [unit_vec(len(kept), i) for i in range(len(kept))])


def ref_p_complement(pair):
    g, K = pair.g, pair.K
    zero = K.zero_char()
    torus_cols = [column(pair.iota, t) for t in range(K.torus_rank)]
    chosen = []
    span = Subspace(g.dim, [as_map(c) for c in torus_cols])
    for j in range(g.dim):
        if pair.ad_grading[j] != zero:
            chosen.append(j)
        elif span.add(as_map(unit_vec(g.dim, j))):
            chosen.append(j)
    p_basis = [unit_vec(g.dim, j) for j in chosen]
    cols = torus_cols + p_basis
    if len(cols) != g.dim:
        raise ValueError("complement of the torus image is not K-stable")
    inv = inverse(from_columns(cols, rows=g.dim))
    ents = {}
    for r in range(len(p_basis)):
        for c in range(g.dim):
            v = inv[(K.torus_rank + r, c)]
            if not v.is_zero():
                ents[(r, c)] = v
    return p_basis, Matrix(len(p_basis), g.dim, ents)


def ref_check_exactness(res):
    base = res.hcomplex().base
    bad = []
    for n in range(-res.pair.g.dim, 1):
        out = base.diff(n) if n < 0 else res.augmentation()
        interior = base.interior_cols(n)
        image = column_space(base.diff(n - 1))
        for w in kernel_basis(out.restrict_columns(interior)):
            v = [ZERO] * base.dim_at(n)
            for c, x in zip(interior, w):
                v[c] = x
            if not image.contains(as_map(v)):
                bad.append(f"interior cycle not a boundary at degree {n}")
                break
    return ValidationReport.good() if not bad else ValidationReport.bad(*bad)


def ref_homology(cx):
    """The elimination-only homology loop that the rank count now precedes."""
    report = HomologyReport()
    for n in cx.degrees():
        d_out, d_in = cx.diff(n), cx.diff(n - 1)
        if cx.interior is None and not (d_out @ d_in).is_zero():
            raise ValueError("not a complex: boundaries are not cycles (d_out @ d_in != 0)")
        cycles = kernel_on(d_out, cx.interior_cols(n))
        reps = [dense(v, cx.dim_at(n)) for v in independent_over(d_in, cycles)]
        report.dims[n] = len(reps)
        report.representatives[n] = reps
    return report


# -- inputs ------------------------------------------------------------------------


def line_pair() -> Pair:
    g = LieAlgebra(1, ["x"])
    K = DiagGroup(torus_rank=1)
    return Pair(g, K, [K.zero_char()], Matrix.from_rows([[1]]))


def catalog_cases():
    """(name, small pair, module) for the 3 catalog subpairs and identity(trivial_k), F0..F6."""
    big = [trivial_module(so2_pair())] + [finite_irrep_so2(m) for m in range(1, 7)]
    for name, make in SUBPAIR_CATALOG.items():
        emb = make()
        for m, M in enumerate(big):
            yield f"{name} F{m}", emb.small, restrict_module(emb, M)
    pair = trivial_k_pair()
    for m in range(7):
        yield f"identity(trivial_k) F{m}", pair, finite_irrep(m, pair)


def h_bases(dim):
    units = [unit_vec(dim, j) for j in range(dim)]
    yield units
    yield from ([u] for u in units)
    yield [tuple(Scalar(1) for _ in range(dim))]
    yield []


# -- the routines themselves -------------------------------------------------------


def _random_matrix(rng, rows, cols):
    ents = {(r, c): Scalar(rng.randint(-2, 2), rng.choice((0, 0, 1)))
            for r in range(rows) for c in range(cols) if rng.random() < 0.5}
    return Matrix(rows, cols, ents)


@pytest.mark.parametrize("seed", range(20))
def test_kernel_on_is_the_kernel_of_the_chosen_columns_at_full_length(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rng.randint(0, 4), rng.randint(1, 7))
    cols = sorted(rng.sample(range(m.cols), rng.randint(0, m.cols)))
    # zeroing the other columns adds their unit vectors to the kernel, and
    # the canonical kernel keeps them apart from the rest
    masked = Matrix(m.rows, m.cols, {rc: v for rc, v in m.entries.items() if rc[1] in cols})
    others = set(range(m.cols)) - set(cols)
    expected = [v for v in kernel_basis(masked)
                if not any(not v[c].is_zero() for c in others)]
    got = kernel_on(m, cols)
    assert all(set(v) <= set(cols) for v in got)
    got = [dense(v, m.cols) for v in got]
    assert got == expected
    assert all(len(v) == m.cols for v in got)
    assert all(apply(m, v) == (ZERO,) * m.rows for v in got)


@pytest.mark.parametrize("seed", range(20))
def test_independent_over_matches_the_subspace_reference(seed):
    rng = random.Random(100 + seed)
    base = _random_matrix(rng, rng.randint(1, 6), rng.randint(0, 4))
    cands = [column(_random_matrix(rng, base.rows, 1), 0) for _ in range(rng.randint(0, 6))]
    cands += [unit_vec(base.rows, j) for j in range(base.rows)]
    expected = ref_independent_over(base.rows, [column(base, c) for c in range(base.cols)],
                                    cands)
    assert independent_over(base, [as_map(v) for v in cands]) == [as_map(v) for v in expected]


def test_independent_over_keeps_the_first_of_dependent_candidates():
    base = Matrix.from_rows([[1], [1], [0]])
    e0, e1, e2 = ({j: Scalar(1)} for j in range(3))
    assert independent_over(base, [e0, e1, e2]) == [e0, e2]
    assert independent_over(base, [e2, e1, e0]) == [e2, e1]


# -- the callers against their references ------------------------------------------


def test_coinvariants_match_the_reference():
    cases = list(catalog_cases())
    assert len(cases) == 4 * 7
    dims = set()
    for name, pair, M in cases:
        for basis in h_bases(pair.g.dim):
            rep = coinvariants(M, [as_map(eta) for eta in basis])
            expected = ref_coinvariants(M, basis)
            assert rep.representatives[0] == expected, (name, basis)
            assert rep.dims == {0: len(expected)}
            dims.add(len(expected))
    assert {0, 1, 2} <= dims


def test_p_complement_matches_the_reference():
    pairs = [trivial_k_pair(), so2_pair(), torus_pair(), line_pair()]
    for make in SUBPAIR_CATALOG.values():
        emb = make()
        pairs += [emb.small, emb.big]
    for pair in pairs:
        basis, proj = p_complement(pair)
        ref_basis, ref_proj = ref_p_complement(pair)
        assert basis == ref_basis
        assert proj == ref_proj


def test_p_complement_keeps_the_first_weight_zero_completion():
    # two weight-zero directions and a torus on the second: the first completes it
    g = LieAlgebra(2, ["a", "b"])
    K = DiagGroup(torus_rank=1)
    pair = Pair(g, K, [K.zero_char()] * 2, Matrix.from_rows([[0], [1]]))
    basis, _ = p_complement(pair)
    assert basis == [unit_vec(2, 0)]
    pair = Pair(g, K, [K.zero_char()] * 2, Matrix.from_rows([[1], [1]]))
    basis, _ = p_complement(pair)
    assert basis == [unit_vec(2, 0)]


RESOLUTION_PAIRS = {"so2": so2_pair, "torus": torus_pair, "trivial_k": trivial_k_pair,
                    "line": line_pair}


EXACTNESS_PAIRS = dict(RESOLUTION_PAIRS, sl2_sum=sl2_sum_pair)
EXACTNESS_CASES = [(c, name) for c in (2, 3, 4) for name in sorted(RESOLUTION_PAIRS)]
EXACTNESS_CASES += [(2, "sl2_sum"), (3, "sl2_sum")]


@pytest.mark.parametrize("cutoff, name", EXACTNESS_CASES,
                         ids=[f"{c}-{name}" for c, name in EXACTNESS_CASES])
def test_check_exactness_matches_the_reference(name, cutoff):
    res = StandardResolution(EXACTNESS_PAIRS[name](), cutoff)
    assert res.check_exactness().violations == ref_check_exactness(res).violations


@pytest.mark.parametrize("name", ["line", "so2"])
def test_check_exactness_matches_the_reference_with_zero_boundaries(monkeypatch, name):
    monkeypatch.setattr(
        StandardResolution, "_diff",
        lambda self, n: Matrix.zeros(self.dim_at_wedge(n - 1), self.dim_at_wedge(n)))
    res = StandardResolution(RESOLUTION_PAIRS[name](), 4)
    rep = res.check_exactness()
    assert not rep.ok
    assert rep.violations == ref_check_exactness(res).violations


# -- the rank-count certificate of Complex.homology ---------------------------------


def spans_that_raise(monkeypatch):
    """Make the elimination route of Complex.homology raise if it is taken."""
    def refuse(*args):
        raise AssertionError("the rank count did not certify this degree")
    monkeypatch.setattr(complexes, "kernel_on", refuse)
    monkeypatch.setattr(complexes, "independent_over", refuse)


def counted_spans(monkeypatch):
    """Count the degrees that Complex.homology decides by elimination."""
    calls = []
    kernel = complexes.kernel_on
    monkeypatch.setattr(complexes, "kernel_on", lambda m, cols: calls.append(1) or kernel(m, cols))
    return calls


CERTIFIED_CASES = [(name, c) for name in sorted(RESOLUTION_PAIRS) for c in (2, 3, 4, 5, 6)]
CERTIFIED_CASES += [("sl2_sum", c) for c in (2, 3, 4)]


@pytest.mark.parametrize("name, cutoff", CERTIFIED_CASES)
def test_the_rank_count_certifies_every_degree_of_a_resolution(monkeypatch, name, cutoff):
    res = StandardResolution(EXACTNESS_PAIRS[name](), cutoff)
    spans_that_raise(monkeypatch)
    assert res.check_exactness().violations == ()


@pytest.mark.parametrize("m", range(1, 11))
def test_the_rank_count_certifies_rel_homology_of_a_nontrivial_irrep(monkeypatch, m):
    # Whitehead: H_*(sl2; F_m) = 0 for m > 0, so every degree is exact
    pair = trivial_k_pair()
    spans_that_raise(monkeypatch)
    h = rel_homology(SubpairEmbedding.identity(pair), finite_irrep(m, pair))
    assert h.dims == {n: 0 for n in range(4)}
    assert h.representatives == {n: [] for n in range(4)}


def test_a_boundary_with_denominator_p_is_left_to_elimination(monkeypatch):
    # scaling every boundary by 1/P keeps the complex exact, but the
    # reduction mod P is undefined on it, so every degree falls back
    diff = StandardResolution._diff
    monkeypatch.setattr(StandardResolution, "_diff",
                        lambda self, n: diff(self, n).scale(Scalar(Fraction(1, P))))
    res = StandardResolution(so2_pair(), 3)
    calls = counted_spans(monkeypatch)
    rep = res.check_exactness()
    assert rep.ok and rep.violations == ref_check_exactness(res).violations
    assert len(calls) == res.pair.g.dim + 1


def test_the_count_needs_the_exact_product(monkeypatch):
    # the boundary sends x (x) 1 to 1 and x (x) x to x; at degree 0 the ranks
    # mod P of those two columns and of the counit sum to the 3 interior
    # columns, yet x^2 is a cycle and no boundary, because the image leaves
    # the cycles: the counit of the first column is 1
    monkeypatch.setattr(StandardResolution, "_diff",
                        lambda self, n: Matrix(5, 5, {(0, 0): 1, (1, 1): 1}))
    res = StandardResolution(line_pair(), 4)
    base = res.hcomplex().base
    assert base.interior_cols(0) == [0, 1, 2]
    inside = [v for v in sparse_columns(base.diff(-1)) if v and v.keys() <= {0, 1, 2}]
    counit = sparse_columns(res.augmentation())
    assert rank_mod_p(inside) + rank_mod_p(counit[c] for c in (0, 1, 2)) >= 3
    calls = counted_spans(monkeypatch)
    rep = res.check_exactness()
    assert rep.violations == ref_check_exactness(res).violations
    assert "interior cycle not a boundary at degree 0" in rep.violations
    assert len(calls) == 2


def _random_degree(rng):
    """(out, d_in): a random d_in and an out whose rows combine left null
    vectors of d_in, so that out @ d_in = 0, except in one case of five,
    where out is random.  Rows are sometimes dropped, which leaves cycles
    that are no boundaries, and some coefficients are P or 1/P, which the
    reduction mod P kills or cannot map."""
    n = rng.randint(1, 6)
    d_in = _random_matrix(rng, n, rng.randint(0, 6))
    if rng.random() < 0.2:
        return _random_matrix(rng, rng.randint(1, 4), n), d_in
    left = kernel_basis(d_in.transpose())
    if left and rng.random() < 0.3:
        left.pop(rng.randrange(len(left)))
    special = (Scalar(P), Scalar(Fraction(1, P)))
    ents = {}
    for r in range(len(left) + rng.randint(0, 1)):
        for y in left:
            c = rng.choice(special) if rng.random() < 0.05 else Scalar(rng.randint(-2, 2))
            for k, x in enumerate(y):
                add_into(ents, (r, k), c * x)
    return Matrix(len(left) + 1, n, ents), d_in


def degree_complex(out, d_in, interior):
    """The plain complex d_in: C^-1 -> C^0, out: C^0 -> C^1 with the given interior."""
    terms = {-1: plain_space(d_in.cols), 0: plain_space(out.cols), 1: plain_space(out.rows)}
    return Complex(trivial_pair(), terms, {-1: d_in, 0: out}, interior)


def test_a_degree_the_count_certifies_is_exact(monkeypatch):
    calls = counted_spans(monkeypatch)
    outcomes = set()
    for seed in range(300):
        rng = random.Random(500 + seed)
        out, d_in = _random_degree(rng)
        cols = sorted(rng.sample(range(out.cols), rng.randint(0, out.cols)))
        if rng.random() < 0.5:
            cols = list(range(out.cols))
        calls.clear()
        h = degree_complex(out, d_in, {0: cols}).homology()
        certified = not calls
        exact = not independent_over(d_in, kernel_on(out, cols))
        assert exact or not certified, seed
        assert (h.dims[0] == 0) == exact, seed
        outcomes.add((certified, exact))
    # the count certifies, declines exact degrees, and meets inexact ones
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_homology_matches_the_elimination_only_loop(monkeypatch):
    calls = counted_spans(monkeypatch)
    seen = set()
    for seed in range(200):
        rng = random.Random(900 + seed)
        out, d_in = _random_degree(rng)
        interior = {n: sorted(rng.sample(range(d), rng.randint(0, d)))
                    for n, d in ((-1, d_in.cols), (0, out.cols), (1, out.rows))}
        for cx in (random_complex(rng), degree_complex(out, d_in, None),
                   degree_complex(out, d_in, interior)):
            calls.clear()
            try:
                want = ref_homology(cx)
            except ValueError:
                with pytest.raises(NotAComplexError, match="boundaries are not cycles"):
                    cx.homology()
                seen.add("not a complex")
                continue
            got = cx.homology()
            assert got.dims == want.dims, seed
            assert got.representatives == want.representatives, seed
            certified = sum(1 for n in cx.degrees() if cx.interior_cols(n)) - len(calls)
            seen.add(("marked" if cx.interior else "unmarked", certified > 0, bool(calls),
                      any(got.dims.values())))
    # both kinds of complex, certified and eliminated degrees, and nonzero homology
    assert "not a complex" in seen
    for kind in ("marked", "unmarked"):
        assert {(kind, True, False, False), (kind, True, True, True)} <= seen, seen


# -- homology of truncated complexes -------------------------------------------------


@pytest.mark.parametrize("name", ["so2", "torus", "trivial_k"])
@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
def test_truncated_resolution_homology_is_the_trivial_module(name, cutoff):
    res = StandardResolution(RESOLUTION_PAIRS[name](), cutoff)
    base = res.hcomplex().base
    report = base.homology()
    assert report.dims == {n: (1 if n == 0 else 0) for n in base.degrees()}
    unit = res._mono_index[(0,) * res.pair.g.dim]
    assert report.representatives[0] == [unit_vec(base.dim_at(0), unit)]
    assert all(report.representatives[n] == [] for n in base.degrees() if n)
