"""Truncated standard resolutions: axioms, exactness, small closed forms."""

import json

import pytest

from hch import cli, signs
from hch.hcomplexes import check_h_axioms, h_cone, h_shift, h_tensor, HComplexMap
from hch.liepairs import Character, DiagGroup, LieAlgebra, Pair
from hch.linalg import Matrix, add_into
from hch.gkmodules import restrict_module
from hch.pbw import PBW, degree
from hch.relhomology import RelativeStandardComplex
from hch.reports import HomologyReport
from hch.resolution import StandardResolution
from hch.scalars import ONE, Scalar
from hch.sl2 import SUBPAIR_CATALOG, finite_irrep_so2, sl2, so2_pair, torus_pair, trivial_k_pair


def line_pair() -> Pair:
    g = LieAlgebra(1, ["x"])
    K = DiagGroup(torus_rank=1)
    return Pair(g, K, [K.zero_char()], Matrix.from_rows([[1]]))


def test_abelian_line_resolution():
    res = StandardResolution(line_pair(), 4)
    h = res.hcomplex()
    assert h.base.degrees() == [-1, 0]
    assert h.base.dim_at(0) == 5 and h.base.dim_at(-1) == 5
    # d(x^k (x) xi) = x^{k+1}: a shifted identity block, top truncated
    d = h.base.diff(-1)
    assert d[(1, 0)] == Scalar(1) and d[(0, 0)].is_zero()
    assert d[(4, 3)] == Scalar(1)
    assert all(c != 4 for (_, c) in d.entries)  # x^4 (x) xi maps out of the window
    assert check_h_axioms(h).ok
    assert res.check_exactness().ok


def test_first_boundary_of_unit_wedge():
    res = StandardResolution(torus_pair(), 3)
    h = res.hcomplex()
    d = h.base.diff(-1)
    # 1 (x) xi_j goes to the monomial x_j, one entry per generator column
    nm = len(res.monos)
    for j in range(3):
        col = j * nm + res._mono_index[(0, 0, 0)]
        gen = tuple(1 if k == j else 0 for k in range(3))
        assert d[(res._mono_index[gen], col)] == Scalar(1)


@pytest.mark.parametrize("cutoff", [2, 3])
def test_sl2_resolution_axioms(cutoff):
    res = StandardResolution(torus_pair(), cutoff)
    assert check_h_axioms(res.hcomplex()).ok


def test_sl2_resolution_exactness():
    res = StandardResolution(torus_pair(), 3)
    assert res.check_exactness().ok


def test_trivial_group_resolution():
    res = StandardResolution(trivial_k_pair(), 2)
    h = res.hcomplex()
    assert check_h_axioms(h).ok
    assert h.i_maps == {}


def test_shift_and_cone_of_resolution():
    res = StandardResolution(line_pair(), 3)
    h = res.hcomplex()
    assert check_h_axioms(h_shift(h)).ok
    c = h_cone(HComplexMap.identity_h(h))
    assert check_h_axioms(c).ok


def test_tensor_of_two_truncations():
    res = StandardResolution(line_pair(), 3)
    t = h_tensor(res.hcomplex(), res.hcomplex())
    assert check_h_axioms(t).ok


def test_exactness_failure_is_reported(monkeypatch):
    # with every boundary zero, the interior cycles x, x^2 at degree 0 are not boundaries
    monkeypatch.setattr(
        StandardResolution, "_diff",
        lambda self, n: Matrix.zeros(self.dim_at_wedge(n - 1), self.dim_at_wedge(n)))
    rep = StandardResolution(line_pair(), 4).check_exactness()
    assert not rep.ok
    assert "interior cycle not a boundary at degree 0" in rep.violations


def test_cutoff_guard():
    with pytest.raises(ValueError):
        StandardResolution(line_pair(), 1)


PAIRS = {"so2": so2_pair, "torus": torus_pair, "trivial_k": trivial_k_pair, "line": line_pair}


def reference_action(res, n, j):
    """x_j on wedge degree n, straightened again for every (subset, monomial)."""
    u, nm = PBW(res.pair.g), len(res.monos)
    dim = len(res.subsets[n]) * nm
    ents = {}
    for s in range(len(res.subsets[n])):
        for mi, mono in enumerate(res.monos):
            for m2, c in u.gen_times(j, {mono: ONE}).items():
                if degree(m2) <= res.cutoff:
                    ents[(s * nm + res._mono_index[m2], s * nm + mi)] = c
    return Matrix(dim, dim, ents)


def reference_boundary(res, n):
    """wedge^n -> wedge^{n-1}, one (subset, monomial) column at a time."""
    u, nm, g = PBW(res.pair.g), len(res.monos), res.pair.g

    def index(subset, mono):
        return res.subsets[len(subset)].index(subset) * nm + res._mono_index[mono]

    ents = {}
    for subset in res.subsets[n]:
        for mono in res.monos:
            col = index(subset, mono)
            for i, si in enumerate(subset):
                rest = subset[:i] + subset[i + 1:]
                for m2, c in u.mono_times_gen(mono, si).items():
                    if degree(m2) <= res.cutoff:
                        add_into(ents, (index(rest, m2), col), signs.wedge_out_sign(i) * c)
            for p in range(n):
                for q in range(p + 1, n):
                    rest = tuple(x for k, x in enumerate(subset) if k not in (p, q))
                    for l, cl in g.bracket_basis(subset[p], subset[q]).items():
                        if l in rest:
                            continue
                        pos = sum(1 for x in rest if x < l)
                        wedge = rest[:pos] + (l,) + rest[pos:]
                        sgn = signs.wedge_pair_sign(p, q) * signs.wedge_out_sign(pos)
                        add_into(ents, (index(wedge, mono), col), sgn * cl)
    return Matrix(res.dim_at_wedge(n - 1), res.dim_at_wedge(n), ents)


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_terms_and_boundaries_match_per_subset_straightening(name, cutoff):
    res = StandardResolution(PAIRS[name](), cutoff)
    base = res.hcomplex().base
    d = res.pair.g.dim
    for n in range(d + 1):
        term = base.term(-n)
        for j in range(d):
            assert term.g_action[j] == reference_action(res, n, j), (n, j)
        if n:
            assert base.diff(-n) == reference_boundary(res, n), n


def test_hcheck_builds_the_resolution_once(tmp_path, capsys, monkeypatch):
    calls = {"times_gen": 0, "_diff": 0}

    def counted(cls, name):
        f = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(cls, name, wrapper)

    counted(PBW, "times_gen")
    counted(StandardResolution, "_diff")
    path = tmp_path / "so2.json"
    path.write_text(json.dumps(so2_pair().to_json()))
    assert cli.main(["hcheck", "--pair", str(path), "--cutoff", "4"]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "violations": []}
    # one right multiplication per (generator, monomial other than 1): 3 * 34;
    # one boundary per wedge degree
    assert calls == {"times_gen": 3 * 34, "_diff": 3}


def sl2_sum_pair() -> Pair:
    """(sl2 + sl2, T x T): basis e1, h1, f1, e2, h2, f2, the torus on h1 and h2."""
    brackets = {}
    for off in (0, 3):
        e, h, f = off, off + 1, off + 2
        brackets[(e, h)] = {e: Scalar(-2)}
        brackets[(h, f)] = {f: Scalar(-2)}
        brackets[(e, f)] = {h: Scalar(1)}
    g = LieAlgebra(6, ["e1", "h1", "f1", "e2", "h2", "f2"], brackets)
    K = DiagGroup(torus_rank=2)
    grading = [K.character(w) for w in ([2, 0], [0, 0], [-2, 0], [0, 2], [0, 0], [0, -2])]
    iota = Matrix(6, 2, {(1, 0): 1, (4, 1): 1})
    return Pair(g, K, grading, iota)


def finite_factor_pair() -> Pair:
    """(sl2, T x Z/4): e and f carry the residues 1 and 3, so weight sums wrap mod 4."""
    K = DiagGroup(torus_rank=1, finite_invariants=[4])
    grading = [K.character([2], [1]), K.character([0], [0]), K.character([-2], [3])]
    return Pair(sl2(), K, grading, Matrix.from_rows([[0], [1], [0]]))


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_rank_two_torus_resolution_is_an_exact_h_complex(cutoff):
    # axiom (iii) with two different torus generators: i_0 i_1 + i_1 i_0 = 0
    pair = sl2_sum_pair()
    assert pair.validate().ok
    res = StandardResolution(pair, cutoff)
    h = res.hcomplex()
    assert sorted(h.i_maps) == [0, 1]
    assert all(not m.is_zero() for t in (0, 1) for m in h.i_maps[t].values())
    assert check_h_axioms(h).violations == ()
    assert res.check_exactness().violations == ()


def per_vector_weight(res, subset, mono):
    """The K-weight of subset (x) mono, summed from scratch over its factors."""
    K = res.pair.K
    grading = res.pair.ad_grading
    torus = [0] * K.torus_rank
    finite = [0] * len(K.finite_invariants)
    parts = list(subset) + [j for j in range(res.pair.g.dim) for _ in range(mono[j])]
    for j in parts:
        w = grading[j]
        for t in range(K.torus_rank):
            torus[t] += w.torus[t]
        for t, inv in enumerate(K.finite_invariants):
            finite[t] = (finite[t] + w.finite[t]) % inv
    return Character(tuple(torus), tuple(finite))


WEIGHT_CASES = [(name, c) for name in sorted(PAIRS) for c in (2, 3, 4, 5)]
WEIGHT_CASES += [("sl2_sum", 2), ("sl2_sum", 3)]
WEIGHT_CASES += [("torus_normalizer small", c) for c in (2, 3, 4, 5)]
WEIGHT_CASES += [("finite_factor", c) for c in (2, 3, 4)]


@pytest.mark.parametrize("name, cutoff", WEIGHT_CASES)
def test_term_weights_match_the_per_vector_reference(name, cutoff):
    make = dict(PAIRS, sl2_sum=sl2_sum_pair)
    make["torus_normalizer small"] = lambda: SUBPAIR_CATALOG["torus_normalizer"]().small
    make["finite_factor"] = finite_factor_pair
    res = StandardResolution(make[name](), cutoff)
    base = res.hcomplex().base
    for n in range(res.pair.g.dim + 1):
        want = [per_vector_weight(res, subset, mono)
                for subset in res.subsets[n] for mono in res.monos]
        assert base.term(-n).k_weights == want, n


def test_euler_characteristics_are_ints():
    # the terms sit in negative degrees, where (-1) ** n is a float
    chi = StandardResolution(so2_pair(), 2).hcomplex().base.euler_characteristic()
    assert chi == 0 and type(chi) is int
    # a truncation is a complex on its interior columns only, so take the
    # homology of the relative complex, also placed in degrees -n
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    cochain = RelativeStandardComplex(emb, restrict_module(emb, finite_irrep_so2(2)))
    report = cochain.homology()
    assert report.dims == {0: 1, -1: 1}
    assert report.euler_characteristic() == cochain.euler_characteristic() == 0
    assert type(report.euler_characteristic()) is int
    assert type(cochain.euler_characteristic()) is int
    odd = HomologyReport(dims={-1: 1, 0: 3}).euler_characteristic()
    assert odd == 2 and type(odd) is int


def test_augmentation_is_placed_without_validation(monkeypatch):
    res = StandardResolution(so2_pair(), 3)
    unit = res._mono_index[(0, 0, 0)]
    want = Matrix(1, res.dim_at_wedge(0), {(0, unit): 1})
    calls = []
    init = Matrix.__init__
    monkeypatch.setattr(Matrix, "__init__", lambda self, *a: calls.append(a) or init(self, *a))
    got = res.augmentation()
    assert calls == [] and got == want
