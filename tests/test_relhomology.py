"""Relative homology, coinvariants, and the duality/chain-map Ext agreement."""

import pytest

from hch import signs
from hch.gkmodules import FiniteModule, direct_sum, restrict_module, trivial_module
from hch.liepairs import SubpairEmbedding
from hch.linalg import Matrix, add_into
from hch.relhomology import (
    NotAComplexError,
    RelativeStandardComplex,
    coinvariants,
    ext_via_chain_maps,
    ext_via_duality,
    euler_poincare,
    p_complement,
    rel_homology,
)
from hch.scalars import Scalar
from hch.sl2 import (
    SUBPAIR_CATALOG,
    finite_irrep,
    finite_irrep_so2,
    so2_pair,
    trivial_k_pair,
)


def catalog_modules():
    big = so2_pair()
    mods = {"C": trivial_module(big)}
    for m in range(1, 5):
        mods[f"F{m}"] = finite_irrep_so2(m)
    return mods


def test_p_complement_shapes():
    # trivial group: p is everything
    basis, proj = p_complement(trivial_k_pair())
    assert len(basis) == 3 and proj.rows == 3
    # SO(2) inside sl2: p = the two nonzero-weight directions
    basis, proj = p_complement(so2_pair())
    assert len(basis) == 2
    # mu2 torus subpair: no torus algebra, p = all of h
    small = SUBPAIR_CATALOG["diagonal_torus"]().small
    basis, proj = p_complement(small)
    assert len(basis) == 1 and proj[(0, 0)] == Scalar(1)


def test_diagonal_torus_f2_complex_and_homology():
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    m2 = restrict_module(emb, finite_irrep_so2(2))
    cx = RelativeStandardComplex(emb, m2)
    assert (cx.dim(0), cx.dim(1)) == (3, 3)
    assert cx.validate().ok
    h = rel_homology(emb, m2)
    assert h.dims == {0: 1, 1: 1}
    # odd module: mu2-coinvariants vanish entirely
    m1 = restrict_module(emb, finite_irrep_so2(1))
    cx1 = RelativeStandardComplex(emb, m1)
    assert cx1.dim(0) == 0 and cx1.dim(1) == 0
    assert rel_homology(emb, m1).dims == {0: 0, 1: 0}


def test_so2_subpair_concentrated_in_degree_zero():
    emb = SUBPAIR_CATALOG["so2"]()
    m = restrict_module(emb, finite_irrep_so2(2))
    cx = RelativeStandardComplex(emb, m)
    assert cx.p_dim == 0  # h = k^H here, nothing transverse
    # C_0 = the k0-weight-zero line
    assert cx.dim(0) == 1
    assert rel_homology(emb, m).dims == {0: 1}


def test_whitehead_vanishing():
    pair = trivial_k_pair()
    emb = SubpairEmbedding.identity(pair)
    for m in range(1, 5):
        h = rel_homology(emb, finite_irrep(m, pair))
        assert all(h.dims[n] == 0 for n in range(4)), (m, h.dims)


def test_trivial_module_full_homology():
    pair = trivial_k_pair()
    emb = SubpairEmbedding.identity(pair)
    h = rel_homology(emb, trivial_module(pair))
    assert [h.dims[n] for n in range(4)] == [1, 0, 0, 1]


def test_homology_vanishes_above_p_dim():
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    m = restrict_module(emb, finite_irrep_so2(2))
    h = rel_homology(emb, m)
    assert all(n <= 1 for n in h.dims)


def test_coinvariants_examples():
    pair = trivial_k_pair()
    triv = trivial_module(pair)
    assert coinvariants(triv, []).dims[0] == 1
    f2 = finite_irrep(2, pair)
    theta = (Scalar(1), Scalar(0), Scalar(1))  # e + f acts like the split torus
    h_diag = (Scalar(0), Scalar(1), Scalar(0))
    assert coinvariants(f2, [h_diag]).dims[0] == 1
    full = [tuple(Scalar(1 if i == j else 0) for i in range(3)) for j in range(3)]
    assert coinvariants(f2, full).dims[0] == 0
    assert coinvariants(f2, [theta]).dims[0] == 1


def test_ext_routes_agree_on_catalog():
    mods = catalog_modules()
    for name, mk in SUBPAIR_CATALOG.items():
        emb = mk()
        for mname, big_mod in mods.items():
            m = restrict_module(emb, big_mod)
            for n in range(0, 4):
                a = ext_via_duality(emb, m, n)
                b = ext_via_chain_maps(emb, m, n)
                assert a == b, (name, mname, n, a, b)


def test_ext_examples():
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    f2 = restrict_module(emb, finite_irrep_so2(2))
    assert ext_via_duality(emb, f2, 0) == 1
    f1 = restrict_module(emb, finite_irrep_so2(1))
    assert all(ext_via_duality(emb, f1, n) == 0 for n in range(3))
    for name, mk in SUBPAIR_CATALOG.items():
        e = mk()
        c = restrict_module(e, trivial_module(so2_pair()))
        assert ext_via_duality(e, c, 0) == 1, name


def test_euler_poincare():
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    f2 = restrict_module(emb, finite_irrep_so2(2))
    f1 = restrict_module(emb, finite_irrep_so2(1))
    assert euler_poincare(emb, f2) == 0
    assert euler_poincare(emb, f1) == 0
    c = restrict_module(emb, trivial_module(so2_pair()))
    assert euler_poincare(emb, c) == 0
    # additivity on direct sums
    both = direct_sum(f2, f2)
    assert euler_poincare(emb, both) == euler_poincare(emb, f2) * 2


def test_ext_via_duality_computes_one_degree_like_rel_homology(monkeypatch):
    cases = []
    for name, mk in SUBPAIR_CATALOG.items():
        emb = mk()
        cases += [(name, m, emb, restrict_module(emb, finite_irrep_so2(m))) for m in range(5)]
    ident = SubpairEmbedding.identity(trivial_k_pair())
    cases += [("identity(trivial_k)", m, ident, finite_irrep(m, trivial_k_pair()))
              for m in range(5)]
    want = {(name, m): rel_homology(emb, M).dims for name, m, emb, M in cases}
    monkeypatch.setattr("hch.relhomology.homology_at", None)  # no representatives are built
    for name, m, emb, M in cases:
        for n in range(5):
            assert ext_via_duality(emb, M, n) == want[(name, m)].get(n, 0), (name, m, n)


def test_non_complex_is_named(monkeypatch):
    emb = SubpairEmbedding.identity(trivial_k_pair())
    M = finite_irrep(1, trivial_k_pair())
    ones = lambda self, n: Matrix._raw(self.dim(n - 1), self.dim(n), {
        (r, c): Scalar(1) for r in range(self.dim(n - 1)) for c in range(self.dim(n))})
    monkeypatch.setattr(RelativeStandardComplex, "boundary", ones)
    for compute in (lambda: rel_homology(emb, M), lambda: ext_via_duality(emb, M, 1)):
        with pytest.raises(NotAComplexError, match="boundary squared nonzero at degree 2"):
            compute()
    assert issubclass(NotAComplexError, ValueError)


def reference_boundary(cx, n):
    """wedge^n(p) (x) M -> wedge^{n-1}(p) (x) M, one kept column at a time:
    dense p-basis vectors, ``g.bracket`` and ``projection.apply`` per column,
    and every sign made by ``Scalar(...)``."""
    M, g = cx.module, cx.pair.g
    p_basis, projection = p_complement(cx.pair)
    row = {key: r for r, key in enumerate(cx.kept[n - 1])}
    ents = {}
    for col, (subset, k) in enumerate(cx.kept[n]):
        for i, si in enumerate(subset):
            sgn = Scalar(signs.rel_action_sign(i))
            rest = subset[:i] + subset[i + 1:]
            for l, a in enumerate(p_basis[si]):
                if a.is_zero():
                    continue
                for r, v in enumerate(M.g_action[l].column(k)):
                    if not v.is_zero():
                        add_into(ents, (row[(rest, r)], col), sgn * a * v)
        for p in range(n):
            for q in range(p + 1, n):
                sgn0 = Scalar(signs.wedge_pair_sign(p, q))
                rest = tuple(x for t, x in enumerate(subset) if t not in (p, q))
                br = g.bracket(p_basis[subset[p]], p_basis[subset[q]])
                for l, cl in enumerate(projection.apply(br)):
                    if cl.is_zero() or l in rest:
                        continue
                    pos = sum(1 for s in rest if s < l)
                    wedge = rest[:pos] + (l,) + rest[pos:]
                    isgn = Scalar(signs.wedge_out_sign(pos))
                    add_into(ents, (row[(wedge, k)], col), sgn0 * isgn * cl)
    return Matrix(cx.dim(n - 1), cx.dim(n), ents)


def boundary_cases():
    cases = []
    for name, mk in SUBPAIR_CATALOG.items():
        emb = mk()
        cases += [(f"{name} F{m}", emb, restrict_module(emb, finite_irrep_so2(m)))
                  for m in range(5)]
    ident = SubpairEmbedding.identity(trivial_k_pair())
    cases += [(f"identity(trivial_k) F{m}", ident, finite_irrep(m, trivial_k_pair()))
              for m in range(7)]
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    both = direct_sum(restrict_module(emb, finite_irrep_so2(2)),
                      restrict_module(emb, finite_irrep_so2(4)))
    cases.append(("diagonal_torus F2 + F4", emb, both))
    return cases


def test_boundaries_match_the_per_column_reference():
    for name, emb, M in boundary_cases():
        cx = RelativeStandardComplex(emb, M)
        for n in range(1, cx.p_dim + 1):
            assert cx.boundary(n) == reference_boundary(cx, n), (name, n)


def test_building_the_complex_makes_no_scalar(monkeypatch):
    cases = [(emb, M) for _, emb, M in boundary_cases()]
    calls = []
    new = Scalar.__new__
    monkeypatch.setattr(Scalar, "__new__",
                        staticmethod(lambda cls, *a: calls.append(a) or new(cls, *a)))
    built = [RelativeStandardComplex(emb, M) for emb, M in cases]
    assert calls == []
    assert sum(cx.dim(1) for cx in built) > 0


def test_non_equivariant_module_is_named():
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    m2 = restrict_module(emb, finite_irrep_so2(2))
    K = m2.pair.K
    weights = [K.character([], [0]), K.character([], [1]), K.character([], [0])]
    bad = FiniteModule(m2.pair, weights, m2.g_action)
    with pytest.raises(ValueError, match="boundary leaves the coinvariant part"):
        RelativeStandardComplex(emb, bad)
