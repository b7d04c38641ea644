"""Finite and banded module layer: validation, defect, Casimir, constructions."""

import random
from fractions import Fraction

import pytest

from hch.gkmodules import (
    FiniteModule,
    UnsupportedAlgebraError,
    casimir_matrix,
    check_hc,
    contragredient,
    direct_sum,
    kron,
    restrict_module,
    tensor,
    trivial_module,
)
from hch.complexes import Complex, TensorLayout, tensor_complex
from hch.liepairs import Character, DiagGroup, LieAlgebra, Pair, same_pair
from hch.linalg import Matrix, kernel_basis
from hch.resolution import StandardResolution
from hch.scalars import Scalar, as_scalar
from hch.sl2 import (
    SUBPAIR_CATALOG,
    diagonal_torus_subpair,
    finite_irrep,
    finite_irrep_so2,
    so2_pair,
    so2_subpair,
    sl2,
    torus_pair,
    trivial_k_pair,
)
from test_resolution import finite_factor_pair, sl2_sum_pair
from dense_reference import apply


def casimir_value(m):
    return Scalar(Fraction(m * (m + 2), 2))


def test_finite_irrep_validates():
    for m in range(5):
        M = finite_irrep(m)
        assert M.dim == m + 1
        assert M.validate().ok
        assert M.is_genuine()


def adjoint_module() -> FiniteModule:
    """The adjoint representation of sl2 over the torus pair."""
    P = torus_pair()
    return FiniteModule(
        P,
        [P.K.character([2]), P.K.character([0]), P.K.character([-2])],
        [P.g.ad({j: Scalar(1)}) for j in range(3)],
    )


def test_adjoint_module_defect_shift():
    adj = adjoint_module()
    P = adj.pair
    assert adj.validate().ok
    assert adj.is_genuine()
    # shifting every K-weight by +2 makes the defect -... d(rho) gains +2
    shifted = FiniteModule(P, [P.K.character([c.torus[0] + 2]) for c in adj.k_weights],
                           adj.g_action)
    w = shifted.defect().maps[0]
    assert w == Matrix.identity(3).scale(Scalar(2))
    assert shifted.defect().commutes_with_action()


def test_trivial_module():
    M = trivial_module(torus_pair())
    assert M.validate().ok and M.is_genuine()
    assert M.defect().is_zero()


def test_bracket_violation_detected():
    P = torus_pair()
    M = finite_irrep(2)
    tampered = FiniteModule(P, M.k_weights, [M.g_action[0], M.g_action[1], M.g_action[0]])
    assert not tampered.validate().ok


def test_casimir_finite_irreps():
    for m in range(5):
        rep = check_hc(finite_irrep(m))
        assert rep.ok
        assert rep.eigenvalues == [casimir_value(m)]


def test_casimir_direct_sum():
    M = direct_sum(finite_irrep(1), finite_irrep(3))
    assert M.validate().ok
    rep = check_hc(M)
    assert rep.ok
    assert rep.eigenvalues == [casimir_value(1), casimir_value(3)]


def test_casimir_unsupported_algebra():
    from hch.liepairs import DiagGroup, LieAlgebra, Pair
    ab = Pair(LieAlgebra(1, ["x"]), DiagGroup(), [DiagGroup().zero_char()])
    with pytest.raises(UnsupportedAlgebraError):
        casimir_matrix(trivial_module(ab))


def test_tensor_unit_and_clebsch_gordan():
    M = finite_irrep(2)
    unit = tensor(M, trivial_module(M.pair))
    assert unit.k_weights == M.k_weights
    assert unit.g_action == M.g_action

    T = tensor(finite_irrep(1), finite_irrep(1))
    assert T.validate().ok
    rep = check_hc(T)
    assert rep.ok
    assert rep.eigenvalues == [casimir_value(0), casimir_value(2)]
    assert sorted(ch.torus[0] for ch in T.k_weights) == [-2, 0, 0, 2]


def test_contragredient():
    M = finite_irrep(3)
    D = contragredient(M)
    assert D.validate().ok
    assert check_hc(D).eigenvalues == [casimir_value(3)]
    DD = contragredient(D)
    assert DD.k_weights == M.k_weights
    assert DD.g_action == M.g_action


def test_kron_mixed_shapes():
    a = Matrix.from_rows([[1, 2]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (2, 4)
    assert k[(0, 1)] == Scalar(1) and k[(0, 3)] == Scalar(2)


def test_finite_irrep_so2_and_basis_change_oracle():
    """The rotation-basis irrep agrees with conjugating the standard one."""
    m = 3
    M = finite_irrep_so2(m)
    assert M.validate().ok and M.is_genuine()
    assert check_hc(M).eigenvalues == [casimir_value(m)]

    # independent route: take the standard irrep, form the matrices of
    # u+ = h + i(e+f), k0 = -i(e-f), u- = h - i(e+f), and read dims of
    # k0-eigenspaces; they must match the multiplicity-one weight ladder.
    std = finite_irrep(m)
    i = Scalar(0, 1)
    e_m, h_m, f_m = std.g_action
    k0 = (e_m - f_m).scale(-i)
    for w in range(-m, m + 1, 2):
        eig = kernel_basis(k0 - Matrix.identity(m + 1).scale(Scalar(w)))
        assert len(eig) == 1
    # and u+ maps the w-eigenspace into the (w+2)-eigenspace
    u_plus = h_m + (e_m + f_m).scale(i)
    v = kernel_basis(k0 - Matrix.identity(m + 1).scale(Scalar(-m)))[0]
    img = apply(u_plus, v)
    chk = apply(k0, img)
    assert chk == tuple(Scalar(2 - m) * x for x in img)


def test_restrict_module_to_diagonal_torus():
    emb = diagonal_torus_subpair()
    assert emb.validate().ok
    M = restrict_module(emb, finite_irrep_so2(2))
    assert M.validate().ok
    # mu2 acts trivially on every vector of an even irrep
    assert all(ch.finite == (0,) for ch in M.k_weights)
    M1 = restrict_module(emb, finite_irrep_so2(1))
    assert [ch.finite for ch in M1.k_weights] == [(1,), (1,)]


def test_restrict_module_so2_identityish():
    emb = so2_subpair()
    assert emb.validate().ok
    M = restrict_module(emb, finite_irrep_so2(2))
    assert M.validate().ok
    assert [ch.torus[0] for ch in M.k_weights] == [2, 0, -2]
    assert M.is_genuine()


def test_whitehead_pair_is_valid():
    P = trivial_k_pair()
    assert P.validate().ok
    M = finite_irrep(2, P)
    assert M.validate().ok
    assert sl2().check_jacobi().ok


def test_torus_weight_matrix_places_nonzero_weights_without_validation(monkeypatch):
    modules = [finite_irrep(3), finite_irrep_so2(4), trivial_module(so2_pair()),
               tensor(finite_irrep_so2(2), finite_irrep_so2(1))]
    want = [[Matrix.diagonal([as_scalar(ch.torus[t]) for ch in M.k_weights])
             for t in range(M.pair.K.torus_rank)] for M in modules]
    monkeypatch.setattr(Matrix, "__init__", None)
    for M, mats in zip(modules, want):
        for t, w in enumerate(mats):
            got = M.torus_weight_matrix(t)
            assert got == w and (got.rows, got.cols) == (M.dim, M.dim)
            assert all(not v.is_zero() for v in got.entries.values())


def test_defect_on_chosen_columns_is_the_restricted_defect():
    adj = adjoint_module()
    shifted = FiniteModule(adj.pair, [adj.pair.K.character([c.torus[0] + 2]) for c in adj.k_weights],
                           adj.g_action)
    res = StandardResolution(so2_pair(), 2).hcomplex().base
    modules = [shifted, finite_irrep_so2(3),
               tensor_complex(res, res).term(-1),
               StandardResolution(sl2_sum_pair(), 2).hcomplex().base.term(-1)]
    # weak but for the irrep
    assert [M.defect().is_zero() for M in modules] == [False, True, False, False]
    rng = random.Random(15)
    for M in modules:
        full = M.defect()
        assert full.cols is None
        every = list(range(M.dim))
        for cols in [[], every, rng.sample(every, M.dim), rng.sample(every, M.dim // 3),
                     rng.sample(every, 1)]:
            got = M.defect(cols)
            assert got.cols == cols
            assert len(got.maps) == M.pair.K.torus_rank
            for w, g in zip(full.maps, got.maps):
                assert g == w.restrict_columns(cols)
                assert (g.rows, g.cols) == (M.dim, len(cols))
                assert all(not v.is_zero() for v in g.entries.values())
        with pytest.raises(ValueError, match="every column"):
            M.defect(every).commutes_with_action()


def weight_module(pair: Pair, weights) -> FiniteModule:
    """A module with the given (torus, finite) weights and zero action."""
    ws = [pair.K.character(*w) for w in weights]
    return FiniteModule(pair, ws, [Matrix.zeros(len(ws), len(ws))] * pair.g.dim)


def test_tensor_weights_match_the_elementwise_sum():
    P = finite_factor_pair()
    assert P.validate().ok
    add = P.K.add
    # repeated left weights, residues that wrap
    M = weight_module(P, [([2], [1]), ([0], [3]), ([2], [1]), ([-2], [2]), ([0], [3])])
    N = weight_module(P, [([1], [3]), ([0], [1]), ([-1], [2]), ([1], [3])])
    want = [add(a, b) for a in M.k_weights for b in N.k_weights]
    assert tensor(M, N).k_weights == want
    assert any(w.finite == (0,) for w in want) and any(w.finite == (3,) for w in want)
    C = Complex(P, {0: M, 1: N}, {})
    D = Complex(P, {-1: N, 0: M, 1: N}, {})
    lay = TensorLayout(C, D)
    T = tensor_complex(C, D)
    assert T.degrees() == [-1, 0, 1, 2]
    for n in T.degrees():
        assert T.term(n).k_weights == [add(a, b) for i in lay.blocks[n]
                                       for a in C.term(i).k_weights
                                       for b in D.term(n - i).k_weights]
    res = StandardResolution(P, 3).hcomplex().base
    R = tensor_complex(res, res)
    blocks = TensorLayout(res, res).blocks
    for n in (-1, -3):
        assert R.term(n).k_weights == [add(a, b) for i in blocks[n]
                                       for a in res.term(i).k_weights
                                       for b in res.term(n - i).k_weights]


def _catalog_pairs():
    pairs = [so2_pair(), torus_pair(), trivial_k_pair(), sl2_sum_pair(), finite_factor_pair()]
    for make in SUBPAIR_CATALOG.values():
        emb = make()
        pairs += [emb.small, emb.big]
    return pairs


def _one_field_changed(pair: Pair):
    """Copies of pair that differ from it in exactly one serialized field."""
    g, K = pair.g, pair.K
    brackets = {jk: dict(comp) for jk, comp in g._brackets.items()}
    out = [Pair(LieAlgebra(g.dim, ["y"] + g.basis_labels[1:], brackets), K, pair.ad_grading, pair.iota)]
    if brackets:
        (jk, comp), *_ = brackets.items()
        scaled = {**brackets, jk: {l: v * 2 for l, v in comp.items()}}
        out.append(Pair(LieAlgebra(g.dim, g.basis_labels, scaled), K, pair.ad_grading, pair.iota))
    other_k = DiagGroup(K.torus_rank, K.finite_invariants + (2,))
    grading = [Character(ch.torus, ch.finite + (0,)) for ch in pair.ad_grading]
    out.append(Pair(g, other_k, pair.ad_grading, pair.iota))  # K alone changed
    out.append(Pair(g, other_k, grading, pair.iota))
    if K.torus_rank:
        first = pair.ad_grading[0]
        moved = Character((first.torus[0] + 1, *first.torus[1:]), first.finite)
        out.append(Pair(g, K, [moved] + pair.ad_grading[1:], pair.iota))
        (rc, v), *_ = pair.iota.entries.items()
        out.append(Pair(g, K, pair.ad_grading, Matrix(pair.iota.rows, pair.iota.cols,
                                                      {**pair.iota.entries, rc: v + 1})))
    return out


def test_same_pair_agrees_with_json_equality():
    pairs = _catalog_pairs()
    pairs += [q for p in pairs for q in _one_field_changed(p)]
    for a in pairs:
        for b in pairs:
            assert same_pair(a, b) == (a.to_json() == b.to_json())
    for p in _catalog_pairs():
        changed = _one_field_changed(p)
        assert len(changed) >= 3 and not any(same_pair(p, q) for q in changed)
        assert same_pair(p, Pair(p.g, p.K, list(p.ad_grading), Matrix(p.iota.rows, p.iota.cols,
                                                                        p.iota.entries)))


def test_module_over_another_pair_is_refused():
    emb = diagonal_torus_subpair()
    F2 = finite_irrep_so2(2)
    assert restrict_module(emb, F2).dim == 3  # a fresh so2_pair() is the same pair
    with pytest.raises(ValueError, match=r"^module is not over the big pair of the embedding$"):
        restrict_module(emb, finite_irrep(2))
    with pytest.raises(ValueError, match=r"^direct sum needs modules over the same pair$"):
        direct_sum(F2, finite_irrep(2))
    assert direct_sum(F2, finite_irrep_so2(1)).dim == 5
