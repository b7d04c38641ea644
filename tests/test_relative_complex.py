"""The relative standard complex: its kept basis, its one d^2 verdict, one rank
count per degree, and the rank-2 and rank-3 pairs (sl_n, T^(n-1))."""

from collections import Counter
from itertools import combinations
from math import factorial

import pytest

from hch import complexes, signs
from hch.complexes import ce_boundary
from hch.gkmodules import FiniteModule, restrict_module, trivial_module
from hch.liepairs import DiagGroup, LieAlgebra, Pair, SubpairEmbedding
from hch.linalg import Matrix, sparse_columns
from hch.relhomology import (
    RelativeStandardComplex,
    euler_poincare,
    ext_via_chain_maps,
    ext_via_duality,
    held_complex,
    rel_homology,
)
from hch.scalars import ONE, Scalar
from hch.sl2 import SUBPAIR_CATALOG, finite_irrep_so2


# -- (sl_n, T^(n-1)) from matrix units ----------------------------------------------


def _units(n):
    """The basis of sl_n as {(row, col): int} matrices: E_ij for i != j, then
    H_k = E_kk - E_(k+1)(k+1)."""
    roots = [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
    return roots + [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]


def _commutator(a, b):
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for (r, s), u in x.items():
            for (t, c), v in y.items():
                if s == t:
                    out[(r, c)] = out.get((r, c), 0) + sign * u * v
    return out


def sl_n_pair(n):
    """(sl_n, T^(n-1)): the torus acts on E_ij by the weight (h_ii - h_jj)_k,
    and iota sends xi_k to H_k."""
    units = _units(n)
    roots = [next(iter(m)) for m in units[:n * (n - 1)]]
    index = {rc: b for b, rc in enumerate(roots)}

    def coords(m):
        # a traceless matrix in the basis: off-diagonal entries, then the
        # partial sums of the diagonal on the H_k
        out = {index[rc]: Scalar(v) for rc, v in m.items() if rc[0] != rc[1] and v}
        acc = 0
        for k in range(n - 1):
            acc += m.get((k, k), 0)
            if acc:
                out[len(roots) + k] = Scalar(acc)
        return out

    brackets = {(a, b): coords(_commutator(units[a], units[b]))
                for a, b in combinations(range(len(units)), 2)}
    cartan = units[len(roots):]
    K = DiagGroup(torus_rank=n - 1)
    grading = [K.character([h.get((i, i), 0) - h.get((j, j), 0) for h in cartan])
               for i, j in roots] + [K.zero_char()] * (n - 1)
    labels = [f"E{i}{j}" for i, j in roots] + [f"H{k}" for k in range(n - 1)]
    iota = Matrix(len(units), n - 1, {(len(roots) + k, k): 1 for k in range(n - 1)})
    return Pair(LieAlgebra(len(units), labels, brackets), K, grading, iota)


def standard_module(pair, n):
    """C^n, with e_i of torus weight (h_ii)_k."""
    cartan = _units(n)[n * (n - 1):]
    weights = [pair.K.character([h.get((i, i), 0) for h in cartan]) for i in range(n)]
    return FiniteModule(pair, weights, [Matrix(n, n, m) for m in _units(n)])


def adjoint_module(pair):
    return FiniteModule(pair, pair.ad_grading, [pair.g.ad({j: ONE}) for j in range(pair.g.dim)])


FLAG_POINCARE = {3: [1, 0, 2, 0, 2, 0, 1], 4: [1, 0, 3, 0, 5, 0, 6, 0, 5, 0, 3, 0, 1]}


@pytest.fixture(scope="module", params=[3, 4])
def type_a(request):
    n = request.param
    return n, sl_n_pair(n)


def test_sl_n_pair_and_its_standard_module_validate(type_a):
    n, pair = type_a
    assert pair.validate().ok
    assert standard_module(pair, n).validate().ok
    assert adjoint_module(pair).validate().ok
    assert trivial_module(pair).validate().ok


def test_flag_variety_poincare_polynomial(type_a):
    n, pair = type_a
    emb = SubpairEmbedding.identity(pair)
    C = trivial_module(pair)
    want = FLAG_POINCARE[n]
    h = rel_homology(emb, C)
    assert [h.dims[k] for k in range(len(want))] == want
    assert euler_poincare(emb, C) == factorial(n)
    degrees = range(-1, len(want) + 1)
    duality = [ext_via_duality(emb, C, k) for k in degrees]
    assert duality == [ext_via_chain_maps(emb, C, k) for k in degrees]
    assert duality == [0] + want + [0]


def test_nontrivial_irreducibles_have_no_relative_homology(type_a):
    # Wigner's lemma: C^n and the adjoint module differ from C in infinitesimal
    # character.  C^n keeps no basis vector at all (its weights are off the root
    # lattice); the adjoint module keeps one in every degree.
    n, pair = type_a
    emb = SubpairEmbedding.identity(pair)
    top = n * (n - 1)
    standard, adjoint = standard_module(pair, n), adjoint_module(pair)
    for V in (standard, adjoint):
        assert rel_homology(emb, V).dims == {k: 0 for k in range(top + 1)}
        for ext in (ext_via_duality, ext_via_chain_maps):
            assert [ext(emb, V, k) for k in range(top + 1)] == [0] * (top + 1)
    assert not standard.relative_complex.degrees()
    assert all(adjoint.relative_complex.dim_at(-k) for k in range(top + 1))


# -- one rank count per degree, one d^2 product per pair of boundaries ------------


def test_homology_counts_each_rank_once(monkeypatch):
    calls = []
    count = complexes.rank_mod_p
    monkeypatch.setattr(complexes, "rank_mod_p", lambda vs: calls.append(1) or count(vs))
    pair = sl_n_pair(4)
    emb, C = SubpairEmbedding.identity(pair), trivial_module(pair)
    assert rel_homology(emb, C).dims[6] == 6
    # C_1 = C_11 = 0: eleven degrees, one count each
    assert len(C.relative_complex.degrees()) == len(calls) == 11


def test_each_boundary_square_is_formed_once(monkeypatch):
    pair = sl_n_pair(3)
    emb, V = SubpairEmbedding.identity(pair), adjoint_module(pair)
    cx = held_complex(emb, V)
    products = Counter()
    matmul, vanishes = Matrix.__matmul__, complexes.vanishes

    def boundary_on_left(a):
        # a boundary of cx as the left factor, by the boundary's degree
        products.update(n for n, d in cx.diffs.items() if a is d)

    def counted_product(a, b):
        boundary_on_left(a)
        return matmul(a, b)

    def counted_terms(*terms):
        for term in terms:
            if len(term) == 3:
                boundary_on_left(term[1])
        return vanishes(*terms)

    # the d^2 verdict hands its products to linalg.vanishes; a kept product would use @
    monkeypatch.setattr(Matrix, "__matmul__", counted_product)
    monkeypatch.setattr(complexes, "vanishes", counted_terms)
    for _ in range(2):
        rel_homology(emb, V)
        for k in range(8):
            ext_via_duality(emb, V, k)
            ext_via_chain_maps(emb, V, k)
    # d^n d^(n-1) for n = -5 .. -1, and no product on the rank count's side
    assert products == {n: 1 for n in range(-5, 0)}


def test_verdict_is_kept_and_names_every_degree():
    one = Matrix.from_rows([[1]])
    cx = complexes.Complex(complexes.trivial_pair(),
                           {n: complexes.plain_space(1) for n in range(4)}, {0: one, 1: one, 2: one})
    verdict = cx.check_complex()
    assert verdict.violations == ("d^2 != 0 at degree 0", "d^2 != 0 at degree 1")
    assert cx.check_complex() is verdict
    with pytest.raises(complexes.NotAComplexError) as err:
        cx.homology()
    assert str(err.value) == "d^2 != 0 at degree 0; d^2 != 0 at degree 1"


# -- the kept basis against a walk that positions every subset -------------------


def full_walk(emb, M):
    """(kept, boundaries) with a position for every subset of p, kept or not,
    and the boundary worked out on every subset."""
    pair = M.pair
    chosen, _, brackets = pair.complement
    K, zero = pair.K, pair.K.zero_char()
    by_weight = {}
    for k, ch in enumerate(M.k_weights):
        by_weight.setdefault(K.add(zero, ch), []).append(k)
    kept, position = {}, {}
    for n in range(len(chosen) + 1):
        kept[n], position[n] = [], {}
        for subset in combinations(range(len(chosen)), n):
            w = zero
            for s in subset:
                w = K.add(w, pair.ad_grading[chosen[s]])
            ks = by_weight.get(K.neg(w), ())
            position[n][subset] = {k: len(kept[n]) + i for i, k in enumerate(ks)}
            kept[n].extend((subset, k) for k in ks)
    act = [sparse_columns(M.g_action[j]) for j in chosen]
    boundaries = {n: ce_boundary(position[n].items(), len(kept[n - 1]),
                                 position[n - 1].__getitem__, act, signs.rel_action_sign,
                                 brackets)
                  for n in range(1, len(chosen) + 1)}
    return kept, boundaries


def kept_cases():
    for name, mk in SUBPAIR_CATALOG.items():
        emb = mk()
        for m in range(5):
            yield f"{name} F{m}", emb, restrict_module(emb, finite_irrep_so2(m))
    for n in (3, 4):
        pair = sl_n_pair(n)
        emb = SubpairEmbedding.identity(pair)
        yield f"sl{n} C", emb, trivial_module(pair)
        yield f"sl{n} C^{n}", emb, standard_module(pair, n)
    pair = sl_n_pair(3)
    yield "sl3 adjoint", SubpairEmbedding.identity(pair), adjoint_module(pair)


def test_kept_basis_and_boundaries_match_the_full_walk():
    for name, emb, M in kept_cases():
        cx = RelativeStandardComplex(emb, M)
        kept, boundaries = full_walk(emb, M)
        assert cx.kept == kept, name
        for n, d in boundaries.items():
            assert cx.diff(-n) == d, (name, n)
