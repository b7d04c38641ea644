"""The complex builders against references written the long way.

Each reference multiplies by identity matrices with ``kron``, chains
``direct_sum`` block by block and validates every matrix with ``Matrix(...)``.
The builders place the same blocks with one signed Kronecker placer
(``gkmodules.kron_into``); every differential, contraction, term weight,
g-action and interior mark must agree exactly.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hch import gkmodules, signs
from hch.complexes import (
    Complex,
    ComplexMap,
    HomLayout,
    _hom_diff,
    chain_maps,
    cone,
    plain_space,
    tensor_complex,
    trivial_pair,
)
from hch.gkmodules import FiniteModule, direct_sum, kron, kron_into, tensor
from hch.hcomplexes import HComplex, HComplexMap, h_cone, h_tensor
from hch.linalg import Matrix, kernel_basis
from hch.resolution import StandardResolution
from hch.scalars import Scalar
from hch.sl2 import SUBPAIR_CATALOG, finite_irrep, so2_pair, torus_pair, trivial_k_pair
from dense_reference import from_columns, unit_vec

PAIRS = {"so2": so2_pair, "torus": torus_pair, "trivial_k": trivial_k_pair}


# -- references ------------------------------------------------------------------


def ref_tensor(m, n):
    K = m.pair.K
    weights = [K.add(a, b) for a in m.k_weights for b in n.k_weights]
    im, in_ = Matrix.identity(m.dim), Matrix.identity(n.dim)
    return FiniteModule(m.pair, weights,
                        [kron(am, in_) + kron(im, an) for am, an in zip(m.g_action, n.g_action)])


def ref_sum(parts):
    t = parts[0]
    for p in parts[1:]:
        t = direct_sum(t, p)
    return t


def ref_layout(M, N):
    """degree -> [(i, offset)] for (M (x) N)^n, and degree -> dimension."""
    blocks, dims = {}, {}
    for n in sorted({i + j for i in M.degrees() for j in N.degrees()}):
        off, blist = 0, []
        for i in M.degrees():
            sz = M.dim_at(i) * N.dim_at(n - i)
            if sz:
                blist.append((i, off))
                off += sz
        blocks[n], dims[n] = blist, off
    return blocks, dims


def ref_place(ents, block, roff, coff):
    for (r, c), v in block.entries.items():
        ents[(roff + r, coff + c)] = ents.get((roff + r, coff + c), Scalar(0)) + v


def ref_leibniz(M, N, left, right, step, right_sign):
    blocks, dims = ref_layout(M, N)
    offs = {(n, i): off for n, bl in blocks.items() for i, off in bl}
    out = {}
    for n, blist in blocks.items():
        if not dims.get(n + step):
            continue
        ents = {}
        for i, coff in blist:
            j = n - i
            a, b = left(i), right(j)
            if not a.is_zero():
                ref_place(ents, kron(a, Matrix.identity(N.dim_at(j))),
                          offs[(n + step, i + step)], coff)
            if not b.is_zero():
                ref_place(ents, kron(Matrix.identity(M.dim_at(i)), b).scale(Scalar(right_sign(i))),
                          offs[(n + step, i)], coff)
        m = Matrix(dims[n + step], dims[n], ents)
        if not m.is_zero():
            out[n] = m
    return out


def ref_tensor_complex(M, N):
    blocks, _ = ref_layout(M, N)
    terms = {n: ref_sum([ref_tensor(M.term(i), N.term(n - i)) for i, _ in bl])
             for n, bl in blocks.items()}
    interior = None
    if M.interior is not None or N.interior is not None:
        interior = {}
        for n, blist in blocks.items():
            cols = []
            for i, base in blist:
                mi, nj, ndim = set(M.interior_cols(i)), set(N.interior_cols(n - i)), N.dim_at(n - i)
                cols += [base + a * ndim + b for a in range(M.dim_at(i)) for b in range(ndim)
                         if a in mi and b in nj]
            interior[n] = cols
    diffs = ref_leibniz(M, N, M.diff, N.diff, 1, signs.koszul_right_sign)
    return Complex(M.pair, terms, diffs, interior)


def ref_h_tensor(a, b):
    base = ref_tensor_complex(a.base, b.base)
    i_maps = {t: ref_leibniz(a.base, b.base, lambda i: a.i_at(t, i), lambda j: b.i_at(t, j),
                             -1, signs.tensor_contraction_right_sign)
              for t in range(base.pair.K.torus_rank)}
    return HComplex(base, i_maps)


def ref_cone_block(rows, cols, top, top_sign, split_row, split_col, lower_left, lower_right):
    ents = {}
    for (r, c), v in top.entries.items():
        ents[(r, c)] = Scalar(top_sign) * v
    for (r, c), v in lower_left.entries.items():
        ents[(split_row + r, c)] = v
    for (r, c), v in lower_right.entries.items():
        ents[(split_row + r, split_col + c)] = v
    return Matrix(rows, cols, ents)


def ref_cone(f):
    M, N = f.source, f.target
    degs = sorted({n - 1 for n in M.degrees()} | set(N.degrees()))
    terms = {}
    for n in degs:
        parts = [t for t, d in ((M.term(n + 1), M.dim_at(n + 1)), (N.term(n), N.dim_at(n))) if d]
        if parts:
            terms[n] = ref_sum(parts)
    diffs = {}
    for n in degs:
        rows = M.dim_at(n + 2) + N.dim_at(n + 1)
        cols = M.dim_at(n + 1) + N.dim_at(n)
        if rows and cols:
            diffs[n] = ref_cone_block(rows, cols, M.diff(n + 1), signs.cone_shifted_part_sign(),
                                      M.dim_at(n + 2), M.dim_at(n + 1), f.at(n + 1), N.diff(n))
    interior = None
    if M.interior is not None or N.interior is not None:
        interior = {n: list(M.interior_cols(n + 1))
                    + [M.dim_at(n + 1) + c for c in N.interior_cols(n)] for n in degs}
    return Complex(N.pair, terms, diffs, interior)


def ref_h_cone(f):
    M, N = f.hsource, f.htarget
    base = ref_cone(f)
    i_maps = {}
    for t in range(base.pair.K.torus_rank):
        per = {}
        for n in base.degrees():
            rows = M.base.dim_at(n) + N.base.dim_at(n - 1)
            if rows:
                zero = Matrix.zeros(N.base.dim_at(n - 1), M.base.dim_at(n + 1))
                m = ref_cone_block(rows, base.dim_at(n), M.i_at(t, n + 1),
                                   signs.cone_contraction_shifted_sign(),
                                   M.base.dim_at(n), M.base.dim_at(n + 1), zero, N.i_at(t, n))
                if not m.is_zero():
                    per[n] = m
        i_maps[t] = per
    return HComplex(base, i_maps)


# -- comparison --------------------------------------------------------------------


def assert_same_module(got, want):
    assert got.k_weights == want.k_weights
    assert got.g_action == want.g_action


def assert_same_complex(got, want):
    assert got.degrees() == want.degrees()
    for n in want.degrees():
        assert_same_module(got.terms[n], want.terms[n])
    assert got.diffs == want.diffs
    assert got.interior == want.interior


def assert_same_h(got, want):
    assert_same_complex(got.base, want.base)
    assert got.i_maps == want.i_maps


def resolution_h(name, cutoff):
    return StandardResolution(PAIRS[name](), cutoff).hcomplex()


def scaled_identity(h, c):
    return HComplexMap(h, h, {n: Matrix.identity(h.base.dim_at(n)).scale(Scalar(c))
                              for n in h.degrees()})


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("cutoff", [2, 3])
def test_resolution_h_tensor_matches_reference(name, cutoff):
    a, b = resolution_h(name, cutoff), resolution_h(name, 2)
    got = h_tensor(a, b)
    assert_same_h(got, ref_h_tensor(a, b))
    assert_same_complex(tensor_complex(a.base, b.base), got.base)


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("cutoff", [2, 3])
def test_resolution_h_cone_matches_reference(name, cutoff):
    h = resolution_h(name, cutoff)
    for f in (HComplexMap.identity_h(h), scaled_identity(h, 3)):
        assert_same_h(h_cone(f), ref_h_cone(f))
        assert_same_complex(cone(f)[0], ref_cone(f))


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_module_tensor_matches_reference(name):
    h = resolution_h(name, 2)
    terms = [h.base.term(n) for n in h.degrees()]
    for m in terms[:2]:
        for n in terms[-2:]:
            assert_same_module(tensor(m, n), ref_tensor(m, n))
    v2, v3 = finite_irrep(2), finite_irrep(3)
    assert_same_module(tensor(v2, v3), ref_tensor(v2, v3))


def rand_scalar(rng):
    return Scalar(rng.randint(-2, 2), rng.randint(-1, 1))


def random_matrix(rng, rows, cols):
    return Matrix(rows, cols, {(r, c): rand_scalar(rng) for r in range(rows)
                               for c in range(cols) if rng.random() < 0.6})


def random_complex(rng):
    """Plain complex A -> B -> C in degrees 0..2: d1 random, d0 a random map into ker d1."""
    dims = [rng.randint(0, 3) for _ in range(3)]
    terms = {n: plain_space(d) for n, d in enumerate(dims) if d}
    diffs = {}
    if dims[1] and dims[2]:
        diffs[1] = random_matrix(rng, dims[2], dims[1])
    if dims[0] and dims[1]:
        cycles = kernel_basis(diffs[1]) if 1 in diffs else [unit_vec(dims[1], k)
                                                            for k in range(dims[1])]
        if cycles:
            diffs[0] = from_columns(cycles) @ random_matrix(rng, len(cycles), dims[0])
    interior = None
    if rng.random() < 0.5:
        interior = {n: [c for c in range(d) if rng.random() < 0.7] for n, d in enumerate(dims)}
    return Complex(trivial_pair(), terms, diffs, interior)


def ref_chain_maps(M, N):
    """Chain maps the long way: a dense kernel basis, unpacked entry by entry."""
    lay = HomLayout(M, N, 0)
    if lay.dim == 0:
        return []
    out = []
    for v in kernel_basis(_hom_diff(M, N, 0)):
        maps = {}
        for i in lay.blocks:
            rows, cols, off = N.dim_at(i), M.dim_at(i), lay.offsets[i]
            maps[i] = Matrix(rows, cols, {(r, c): v[off + r * cols + c]
                                          for r in range(rows) for c in range(cols)})
        out.append(maps)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_random_complexes_match_reference(seed):
    rng = random.Random(seed)
    M, N = random_complex(rng), random_complex(rng)
    assert_same_complex(tensor_complex(M, N), ref_tensor_complex(M, N))
    for f in (ComplexMap.identity(M), ComplexMap.zero(M, N)):
        assert_same_complex(cone(f)[0], ref_cone(f))
    _, incl, _ = cone(ComplexMap.identity(M))
    assert_same_complex(cone(incl)[0], ref_cone(incl))
    assert tensor_complex(M, N).check_complex().ok
    assert chain_maps(M, N) == ref_chain_maps(M, N)


# -- the placer ----------------------------------------------------------------------

small = st.integers(min_value=-3, max_value=3)


@st.composite
def sparse_matrices(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ents = {}
    for r in range(rows):
        for c in range(cols):
            ents[(r, c)] = Scalar(draw(small), draw(small))
    return Matrix(rows, cols, ents)


@settings(max_examples=60, deadline=None)
@given(a=sparse_matrices(), b=sparse_matrices(), n=st.integers(0, 3),
       roff=st.integers(0, 2), coff=st.integers(0, 2), negate=st.booleans(),
       pick=st.sampled_from(["ab", "aI", "Ib", "II"]))
def test_kron_into_matches_kron_and_scale(a, b, n, roff, coff, negate, pick):
    left = n if pick[0] == "I" else a
    right = n if pick[1] == "I" else b
    full_l = Matrix.identity(n) if pick[0] == "I" else a
    full_r = Matrix.identity(n) if pick[1] == "I" else b
    want = kron(full_l, full_r).scale(Scalar(-1 if negate else 1))
    columns = {0: {0: Scalar(5)}}  # an entry already present is accumulated into
    kron_into(columns, left, right, roff, coff, negate)
    rows, cols = want.rows + roff + 1, want.cols + coff + 1
    expect = Matrix(rows, cols, {(0, 0): Scalar(5)})
    expect = expect + Matrix(rows, cols, {(roff + r, coff + c): v
                                          for (r, c), v in want.entries.items()})
    assert Matrix._raw(rows, cols, columns) == expect
    assert all(col and not any(v.is_zero() for v in col.values()) for col in columns.values())


def test_kron_into_drops_cancelled_entries():
    columns = {}
    kron_into(columns, 2, Matrix.from_rows([[1, 2]]))
    kron_into(columns, 2, Matrix.from_rows([[1, 0]]), negate=True)
    assert columns == {1: {0: Scalar(2)}, 3: {1: Scalar(2)}}


def test_h_tensor_builds_without_validation_or_kron(monkeypatch):
    h = resolution_h("so2", 2)
    calls = {"init": 0, "kron": 0}
    init = Matrix.__init__

    def counted_init(self, *args, **kw):
        calls["init"] += 1
        init(self, *args, **kw)

    def counted_kron(a, b):
        calls["kron"] += 1
        return kron(a, b)

    monkeypatch.setattr(Matrix, "__init__", counted_init)
    for name, mod in list(sys.modules.items()):
        if name.startswith("hch") and getattr(mod, "kron", None) is gkmodules.kron:
            monkeypatch.setattr(mod, "kron", counted_kron)
    got = h_tensor(h, h)
    assert calls == {"init": 0, "kron": 0}
    assert got.base.dim_at(0) == h.base.dim_at(0) ** 2


def reference_irrep_actions(m):
    """e, h, f of F_m, every entry validated by ``Matrix(...)``."""
    n = m + 1
    return [Matrix(n, n, {(k - 1, k): k * (m - k + 1) for k in range(1, n)}),
            Matrix.diagonal([m - 2 * k for k in range(n)]),
            Matrix(n, n, {(k + 1, k): 1 for k in range(n - 1)})]


def test_irreps_and_torus_embedding_build_without_validation(monkeypatch):
    pair = torus_pair()
    emb = SUBPAIR_CATALOG["so2"]()
    want_irreps = [reference_irrep_actions(m) for m in range(13)]
    grp = emb.grp_embed
    want_torus = Matrix(grp.big.torus_rank, grp.small.torus_rank,
                        {(j, i): a for i, row in enumerate(grp.torus_map)
                         for j, a in enumerate(row)})
    calls = []
    init = Matrix.__init__
    monkeypatch.setattr(Matrix, "__init__", lambda self, *a: calls.append(a) or init(self, *a))
    got_irreps = [finite_irrep(m, pair).g_action for m in range(13)]
    got_torus = grp.torus_embedding()
    assert calls == []
    # equal entry dicts: the zero weight of h at m = 2k is not stored
    assert [[a.entries for a in acts] for acts in got_irreps] == \
        [[a.entries for a in acts] for acts in want_irreps]
    assert got_irreps == want_irreps and got_torus == want_torus
