"""Relative homology, coinvariants, and the duality/chain-map Ext agreement."""

import gc
import weakref
from itertools import combinations

import pytest

from hch import complexes, liepairs, schemas, signs
from hch.complexes import NotAComplexError, plain_space, single_term
from hch.gkmodules import FiniteModule, direct_sum, restrict_module, tensor, trivial_module
from hch.liepairs import Character, SubpairEmbedding
from hch.linalg import Matrix, add_into, kernel_basis, rank
from hch.relhomology import (
    RelativeStandardComplex,
    coinvariants,
    ext_via_chain_maps,
    ext_via_duality,
    euler_poincare,
    rel_homology,
)
from hch.scalars import ONE, Scalar
from hch.sl2 import (
    SUBPAIR_CATALOG,
    finite_irrep,
    finite_irrep_so2,
    so2_pair,
    torus_pair,
    trivial_k_pair,
)
from dense_reference import apply, bracket, column, from_columns, homotopy_classes_dim, p_complement


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
    assert (cx.dim_at(0), cx.dim_at(-1)) == (3, 3)
    assert cx.check_complex().ok
    h = rel_homology(emb, m2)
    assert h.dims == {0: 1, 1: 1}
    # odd module: mu2-coinvariants vanish entirely
    m1 = restrict_module(emb, finite_irrep_so2(1))
    cx1 = RelativeStandardComplex(emb, m1)
    assert cx1.dim_at(0) == 0 and cx1.dim_at(-1) == 0
    assert rel_homology(emb, m1).dims == {0: 0, 1: 0}


def test_so2_subpair_concentrated_in_degree_zero():
    emb = SUBPAIR_CATALOG["so2"]()
    m = restrict_module(emb, finite_irrep_so2(2))
    cx = RelativeStandardComplex(emb, m)
    assert cx.p_dim == 0  # h = k^H here, nothing transverse
    # C_0 = the k0-weight-zero line
    assert cx.dim_at(0) == 1
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
    theta = {0: ONE, 2: ONE}  # e + f acts like the split torus
    h_diag = {1: ONE}
    assert coinvariants(f2, [h_diag]).dims[0] == 1
    full = [{j: ONE} for j in range(3)]
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
    monkeypatch.setattr(RelativeStandardComplex, "homology", None)  # no representatives are built
    for name, m, emb, M in cases:
        for n in range(5):
            assert ext_via_duality(emb, M, n) == want[(name, m)].get(n, 0), (name, m, n)


def test_non_complex_is_named(monkeypatch):
    emb = SubpairEmbedding.identity(trivial_k_pair())
    M = finite_irrep(1, trivial_k_pair())
    ones = lambda self, n: Matrix(self.dim_at(n + 1), self.dim_at(n), {
        (r, c): Scalar(1) for r in range(self.dim_at(n + 1)) for c in range(self.dim_at(n))})
    monkeypatch.setattr(RelativeStandardComplex, "diff", ones)
    for compute in (lambda: rel_homology(emb, M), lambda: ext_via_duality(emb, M, 1),
                    lambda: ext_via_chain_maps(emb, M, 1)):
        with pytest.raises(NotAComplexError) as err:
            compute()
        assert str(err.value) == "d^2 != 0 at degree -3; d^2 != 0 at degree -2"
    assert issubclass(NotAComplexError, ValueError)


def reference_boundary(cx, M, n):
    """wedge^n(p) (x) M -> wedge^{n-1}(p) (x) M, one kept column at a time:
    dense p-basis vectors, the dense bracket and projection per column,
    and every sign made by ``Scalar(...)``."""
    g = M.pair.g
    p_basis, projection = p_complement(M.pair)
    row = {key: r for r, key in enumerate(cx.kept.get(n - 1, ()))}
    ents = {}
    for col, (subset, k) in enumerate(cx.kept.get(n, ())):
        for i, si in enumerate(subset):
            sgn = Scalar(signs.rel_action_sign(i))
            rest = subset[:i] + subset[i + 1:]
            for l, a in enumerate(p_basis[si]):
                if a.is_zero():
                    continue
                for r, v in enumerate(column(M.g_action[l], k)):
                    if not v.is_zero():
                        add_into(ents, (row[(rest, r)], col), sgn * a * v)
        for p in range(n):
            for q in range(p + 1, n):
                sgn0 = Scalar(signs.wedge_pair_sign(p, q))
                rest = tuple(x for t, x in enumerate(subset) if t not in (p, q))
                br = bracket(g, p_basis[subset[p]], p_basis[subset[q]])
                for l, cl in enumerate(apply(projection, br)):
                    if cl.is_zero() or l in rest:
                        continue
                    pos = sum(1 for s in rest if s < l)
                    wedge = rest[:pos] + (l,) + rest[pos:]
                    isgn = Scalar(signs.wedge_out_sign(pos))
                    add_into(ents, (row[(wedge, k)], col), sgn0 * isgn * cl)
    return Matrix(len(cx.kept.get(n - 1, ())), len(cx.kept.get(n, ())), ents)


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
            assert cx.diff(-n) == reference_boundary(cx, M, n), (name, n)


def ref_kept(cx, M):
    """The kept basis by the scan over every (wedge subset, module index), with
    the total weight tested through ``K.add``."""
    K = M.pair.K
    zero = K.zero_char()
    p_weights = [M.pair.ad_grading[v.index(Scalar(1))] for v in p_complement(M.pair)[0]]
    kept = {}
    for n in range(len(p_weights) + 1):
        kept[n] = []
        for subset in combinations(range(len(p_weights)), n):
            w = zero
            for s in subset:
                w = K.add(w, p_weights[s])
            for k in range(M.dim):
                if K.add(w, M.k_weights[k]) == zero:
                    kept[n].append((subset, k))
    return kept


def unreduced(M, shift):
    """M with every finite residue a of its K-weights stored as a + shift * n."""
    invariants = M.pair.K.finite_invariants
    weights = [Character(ch.torus, tuple(a + shift * n for a, n in zip(ch.finite, invariants)))
               for ch in M.k_weights]
    return FiniteModule(M.pair, weights, M.g_action)


def test_kept_basis_matches_the_scan():
    for name, emb, M in boundary_cases():
        cx = RelativeStandardComplex(emb, M)
        assert cx.kept == ref_kept(cx, M), name
    kept = 0
    for name in ("diagonal_torus", "torus_normalizer"):
        emb = SUBPAIR_CATALOG[name]()
        for m in range(5):
            M = restrict_module(emb, finite_irrep_so2(m))
            want = RelativeStandardComplex(emb, M)
            for shift in (1, -3):
                shifted = unreduced(M, shift)
                cx = RelativeStandardComplex(emb, shifted)
                assert cx.kept == ref_kept(cx, shifted) == want.kept, (name, m, shift)
                assert all(cx.diff(-n) == want.diff(-n) for n in range(1, cx.p_dim + 1))
                kept += len(cx.kept[0])
    assert kept > 0


def test_p_is_derived_once_per_pair(monkeypatch):
    derived = []
    derive = liepairs._complement
    monkeypatch.setattr(liepairs, "_complement", lambda pair: derived.append(pair) or derive(pair))
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    docs = emb.to_json(), restrict_module(emb, finite_irrep_so2(4)).to_json()

    def ext_grid():
        # the eight complex builds of one ext-grid job: both routes in degrees 0..3
        emb = schemas.load_subpair(docs[0])
        M = schemas.load_finite_module(emb.small, docs[1])
        dims = [ext(emb, M, n) for ext in (ext_via_duality, ext_via_chain_maps) for n in range(4)]
        return M.pair, dims

    pair, dims = ext_grid()
    assert dims == [1, 1, 0, 0] * 2
    assert derived == [pair]
    again, _ = ext_grid()
    assert again is not pair and derived == [pair, again]


def test_held_complex_dies_with_its_module():
    # no reference cycle: reference counting alone frees a dropped module
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    M = restrict_module(emb, finite_irrep_so2(2))
    assert rel_homology(emb, M).dims == {0: 1, 1: 1}
    module, cx = weakref.ref(M), weakref.ref(M.relative_complex)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del M
        assert module() is None and cx() is None
    finally:
        if enabled:
            gc.enable()


def test_building_the_complex_makes_no_scalar(monkeypatch):
    cases = [(emb, M) for _, emb, M in boundary_cases()]
    calls = []
    new = Scalar.__new__
    monkeypatch.setattr(Scalar, "__new__",
                        staticmethod(lambda cls, *a: calls.append(a) or new(cls, *a)))
    built = [RelativeStandardComplex(emb, M) for emb, M in cases]
    assert calls == []
    assert sum(cx.dim_at(-1) for cx in built) > 0


def test_non_equivariant_module_is_named():
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    m2 = restrict_module(emb, finite_irrep_so2(2))
    K = m2.pair.K
    weights = [K.character([], [0]), K.character([], [1]), K.character([], [0])]
    bad = FiniteModule(m2.pair, weights, m2.g_action)
    with pytest.raises(ValueError, match="boundary leaves the coinvariant part"):
        RelativeStandardComplex(emb, bad)


def oracle_cases():
    """(sl2, T) over itself with M = F_m (x) F_n, m, n <= 4."""
    emb = SubpairEmbedding.identity(torus_pair())
    return [(f"F{m} (x) F{n}", m == n, emb, tensor(finite_irrep(m), finite_irrep(n)))
            for m in range(5) for n in range(5)]


def test_torus_pair_closed_form():
    # H_*(sl2, T; M) = H*(S^2) (x) M^sl2, and C occurs in F_m (x) F_n (once) iff m = n
    for name, diagonal, emb, M in oracle_cases():
        d = int(diagonal)
        assert rel_homology(emb, M).dims == {0: d, 1: 0, 2: d}, name
        assert euler_poincare(emb, M) == 2 * d, name
        for n in range(4):
            assert ext_via_duality(emb, M, n) == ext_via_chain_maps(emb, M, n), (name, n)


def reference_homology_at(d_out, d_in):
    """ker d_out / im d_in in one chain degree, by ranks alone: the canonical
    kernel basis of d_out, keeping each cycle that raises the rank of the
    boundaries and of the cycles kept before it."""
    assert (d_out @ d_in).is_zero()
    span = [column(d_in, c) for c in range(d_in.cols)]
    have = rank(d_in)
    reps = []
    for z in kernel_basis(d_out):
        if rank(from_columns(span + [z], rows=d_out.cols)) > have:
            span.append(z)
            reps.append(z)
            have += 1
    return reps


def test_rel_homology_matches_the_chain_degree_reference():
    cases = []
    for name, mk in SUBPAIR_CATALOG.items():
        emb = mk()
        cases += [(f"{name} F{m}", emb, restrict_module(emb, finite_irrep_so2(m)))
                  for m in range(7)]
    ident = SubpairEmbedding.identity(trivial_k_pair())
    cases += [(f"identity(trivial_k) F{m}", ident, finite_irrep(m, trivial_k_pair()))
              for m in range(9)]
    cases += [(name, emb, M) for name, _, emb, M in oracle_cases()]
    for name, emb, M in cases:
        cx = RelativeStandardComplex(emb, M)
        got = rel_homology(emb, M)
        assert sorted(got.dims) == list(range(cx.p_dim + 1)), name
        for n in range(cx.p_dim + 1):
            # boundaries in chain degree n and n + 1, built column by column
            reps = reference_homology_at(reference_boundary(cx, M, n),
                                         reference_boundary(cx, M, n + 1))
            assert got.dims[n] == len(reps), (name, n)
            assert got.representatives[n] == reps, (name, n)
        chi = sum(signs.degree_sign(n) * len(cx.kept[n]) for n in range(cx.p_dim + 1))
        assert euler_poincare(emb, M) == chi, name


def ref_ext_via_duality(emb, M, n):
    """The per-call duality route: a fresh complex, d^2-checked and ranked on every call."""
    cx = RelativeStandardComplex(emb, M)
    for k in range(2, cx.p_dim + 1):
        if not (cx.diff(1 - k) @ cx.diff(-k)).is_zero():
            raise NotAComplexError(f"d^2 != 0 at degree {-k}")
    return cx.dim_at(-n) - rank(cx.diff(-n)) - rank(cx.diff(-n - 1))


def ref_ext_via_chain_maps(emb, M, n):
    """The per-call chain-map route: a fresh complex and two fresh Hom differentials per call."""
    return homotopy_classes_dim(RelativeStandardComplex(emb, M), single_term(plain_space(1)), n)


def test_held_complex_matches_the_per_call_routes():
    cases = []
    for name, mk in SUBPAIR_CATALOG.items():
        emb = mk()
        cases += [(f"{name} F{m}", emb, lambda emb=emb, m=m: restrict_module(emb, finite_irrep_so2(m)))
                  for m in range(7)]
    ident = SubpairEmbedding.identity(trivial_k_pair())
    cases += [(f"identity(trivial_k) F{m}", ident, lambda m=m: finite_irrep(m, trivial_k_pair()))
              for m in (0, 1, 2, 5)]
    for name, emb, make in cases:
        M = make()
        top = RelativeStandardComplex(emb, M).p_dim
        degrees = list(range(-1, top + 2))
        want_d = [ref_ext_via_duality(emb, M, n) for n in degrees]
        want_c = [ref_ext_via_chain_maps(emb, M, n) for n in degrees]
        assert want_d == want_c, name
        # one module asked in ascending order, twice; a fresh one in descending order
        for _ in range(2):
            assert [ext_via_duality(emb, M, n) for n in degrees] == want_d, name
            assert [ext_via_chain_maps(emb, M, n) for n in degrees] == want_c, name
        fresh = make()
        assert [ext_via_chain_maps(emb, fresh, n) for n in reversed(degrees)] == want_c[::-1], name
        assert [ext_via_duality(emb, fresh, n) for n in reversed(degrees)] == want_d[::-1], name


def test_one_build_per_module(monkeypatch):
    builds, ranks, hom_diffs = [], [], []
    init, rank_, hom_diff = RelativeStandardComplex.__init__, complexes.rank, complexes._hom_diff
    monkeypatch.setattr(RelativeStandardComplex, "__init__",
                        lambda self, emb, M: builds.append(M) or init(self, emb, M))
    monkeypatch.setattr(complexes, "rank", lambda m: ranks.append(m) or rank_(m))
    monkeypatch.setattr(complexes, "_hom_diff", lambda *a: hom_diffs.append(a[2]) or hom_diff(*a))
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    docs = emb.to_json(), restrict_module(emb, finite_irrep_so2(4)).to_json()

    def load():
        emb = schemas.load_subpair(docs[0])
        return emb, schemas.load_finite_module(emb.small, docs[1])

    emb, M = load()
    for _ in range(2):
        dims = [ext(emb, M, n) for ext in (ext_via_duality, ext_via_chain_maps) for n in range(4)]
        assert dims == [1, 1, 0, 0] * 2
    assert euler_poincare(emb, M) == 0
    assert rel_homology(emb, M).dims == {0: 1, 1: 1}
    assert builds == [M]
    # d_0 .. d_4 on the complex and delta_-1 .. delta_3 on its dual, each once
    cx = M.relative_complex
    assert ranks == [cx.diff(-n) for n in range(5)] + [cx.dual.diff(n) for n in (0, -1, 1, 2, 3)]
    # the dual is built once, one Hom differential per degree it has
    assert sorted(hom_diffs) == [0, 1]
    _, again = load()
    assert ext_via_duality(emb, again, 0) == 1
    assert builds == [M, again]


def test_failing_complex_raises_on_every_call():
    pair = trivial_k_pair()
    emb = SubpairEmbedding.identity(pair)
    F1 = finite_irrep(1, pair)
    # h acting twice as it should: not a representation, so d^2 != 0
    bad = FiniteModule(pair, F1.k_weights,
                       [F1.g_action[0], F1.g_action[1].scale(Scalar(2)), F1.g_action[2]])
    text = "d^2 != 0 at degree -3; d^2 != 0 at degree -2"
    for compute in (lambda: ext_via_duality(emb, bad, 1), lambda: ext_via_duality(emb, bad, 1),
                    lambda: rel_homology(emb, bad), lambda: ext_via_duality(emb, bad, 0),
                    lambda: ext_via_chain_maps(emb, bad, 1), lambda: ext_via_chain_maps(emb, bad, 0)):
        with pytest.raises(NotAComplexError) as err:
            compute()
        assert str(err.value) == text
    assert ref_ext_via_duality(emb, F1, 1) == ext_via_duality(emb, F1, 1) == 0


def test_mismatched_embedding_raises_after_a_complex_is_held():
    pair = trivial_k_pair()
    emb = SubpairEmbedding.identity(pair)
    M = finite_irrep(2, pair)
    assert ext_via_duality(emb, M, 0) == 0
    other = SUBPAIR_CATALOG["diagonal_torus"]()
    for compute in (ext_via_duality, ext_via_chain_maps):
        with pytest.raises(ValueError, match="module must live over the small pair"):
            compute(other, M, 0)
    for compute in (rel_homology, euler_poincare):
        with pytest.raises(ValueError, match="module must live over the small pair"):
            compute(other, M)
