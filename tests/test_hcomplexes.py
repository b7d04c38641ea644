"""Contraction axioms, h-constructions, and their failure reporting."""

import random
from fractions import Fraction

import pytest

from hch.complexes import Complex, ComplexMap, single_term, tensor_complex
from hch.hcomplexes import (
    HComplex,
    HComplexMap,
    check_h_axioms,
    h_cohomology_modules,
    h_cone,
    h_shift,
    h_tensor,
    zero_contraction,
)
from hch.gkmodules import FiniteModule
from hch.liepairs import DiagGroup, LieAlgebra, Pair
from hch.linalg import Matrix
from hch.resolution import StandardResolution
from hch.scalars import I, ONE, ZERO, Scalar
from hch.sl2 import finite_irrep, so2_pair, torus_pair, trivial_k_pair
from test_resolution import sl2_sum_pair
import dense_reference as ref


def line_pair() -> Pair:
    """Abelian 1-dim g with the torus generator mapped onto it."""
    g = LieAlgebra(1, ["x"])
    K = DiagGroup(torus_rank=1)
    return Pair(g, K, [K.zero_char()], Matrix.from_rows([[1]]))


def line_module(pair: Pair, weight: int, action) -> FiniteModule:
    return FiniteModule(pair, [pair.K.character([weight])],
                        [Matrix.from_rows([[action]])])


def toy_h() -> HComplex:
    """Two copies of a weak line (w = 1) glued by d = i = identity."""
    P = line_pair()
    m = line_module(P, 1, 0)
    base = Complex(P, {0: m, 1: m}, {0: Matrix.from_rows([[1]])})
    return HComplex(base, {0: {1: Matrix.from_rows([[1]])}})


def test_pair_and_module_sanity():
    P = line_pair()
    assert P.validate().ok
    m = line_module(P, 1, 0)
    assert m.validate().ok
    assert not m.is_genuine()
    assert m.defect().maps[0] == Matrix.from_rows([[1]])
    assert line_module(P, 2, 2).is_genuine()


def test_toy_h_complex_passes_axioms():
    assert check_h_axioms(toy_h()).ok


def test_axiom_iv_names_the_failure():
    h = toy_h()
    bad = HComplex(h.base, {0: {1: Matrix.from_rows([[2]])}})
    rep = check_h_axioms(bad)
    assert not rep.ok
    assert any("axiom iv" in v for v in rep.violations)


def test_axiom_i_weight_mixing():
    P = line_pair()
    base = Complex(P, {0: line_module(P, 1, 0), 1: line_module(P, 2, 0)}, {})
    h = HComplex(base, {0: {1: Matrix.from_rows([[1]])}})
    rep = check_h_axioms(h)
    assert any("axiom i:" in v for v in rep.violations)


def test_axiom_iii_square_zero():
    P = line_pair()
    # genuine terms and d = 0, so only the anticommutation axiom can fire
    m = line_module(P, 1, 1)
    base = Complex(P, {0: m, 1: m, 2: m}, {})
    one = Matrix.from_rows([[1]])
    h = HComplex(base, {0: {1: one, 2: one}})
    rep = check_h_axioms(h)
    assert any("axiom iii" in v for v in rep.violations)


def test_zero_contraction_on_genuine_complex():
    P = line_pair()
    m = line_module(P, 2, 2)
    base = Complex(P, {0: m, 1: m}, {0: Matrix.from_rows([[1]])})
    h = zero_contraction(base)
    assert check_h_axioms(h).ok
    assert h_cohomology_modules(h).ok


def test_defect_obstruction_on_cohomology():
    P = line_pair()
    base = single_term(line_module(P, 1, 0))
    assert not h_cohomology_modules(zero_contraction(base)).ok
    # and no contraction can fix a single weak term
    assert not check_h_axioms(zero_contraction(base)).ok


def test_defect_is_built_once_per_degree(monkeypatch):
    """Two weak lines glued by d = i_0 = i_1 = 1 over a torus of rank 2."""
    g = LieAlgebra(2, ["x", "y"])
    K = DiagGroup(torus_rank=2)
    P = Pair(g, K, [K.zero_char()] * 2, Matrix.from_rows([[1, 0], [0, 1]]))
    m = FiniteModule(P, [K.character([1, 1])], [Matrix.zeros(1, 1)] * 2)
    one = Matrix.from_rows([[1]])
    h = HComplex(Complex(P, {0: m, 1: m}, {0: one}), {0: {1: one}, 1: {1: one}})
    calls = []
    defect = FiniteModule.defect

    def counted(self, *args, **kwargs):
        calls.append(self)
        return defect(self, *args, **kwargs)

    monkeypatch.setattr(FiniteModule, "defect", counted)
    assert check_h_axioms(h).ok
    assert len(calls) == len(h.degrees())
    calls.clear()
    assert h_cohomology_modules(h).ok
    assert len(calls) == len(h.degrees())


def test_h_cohomology_of_exact_toy():
    h = toy_h()
    assert h_cohomology_modules(h).ok  # H = 0, vacuously genuine


def test_h_shift_preserves_axioms():
    h = toy_h()
    s = h_shift(h)
    assert s.base.degrees() == [-1, 0]
    assert check_h_axioms(s).ok
    ss = h_shift(s, -1)
    assert ss.base.diffs == h.base.diffs
    assert ss.i_maps == h.i_maps or all(
        ss.i_at(0, n) == h.i_at(0, n) for n in h.degrees())


def test_h_cone_of_identity():
    h = toy_h()
    c = h_cone(HComplexMap.identity_h(h))
    assert check_h_axioms(c).ok
    assert all(d == 0 for d in c.base.homology().dims.values())


def test_h_map_validation_catches_i_mismatch():
    h = toy_h()
    other = HComplex(h.base, {0: {1: Matrix.from_rows([[2]])}})
    f = HComplexMap(h, other, {n: Matrix.identity(1) for n in h.degrees()})
    rep = f.validate()
    assert any("commute with i" in v for v in rep.violations)
    assert HComplexMap.identity_h(h).validate().ok


def test_h_cone_of_an_i_incompatible_map_raises():
    h = toy_h()
    other = HComplex(h.base, {0: {1: Matrix.from_rows([[2]])}})
    f = HComplexMap(h, other, {n: Matrix.identity(1) for n in h.degrees()})
    with pytest.raises(ValueError, match="does not commute with i_xi0"):
        h_cone(f)


def test_h_cone_validates_its_map_once(monkeypatch):
    calls = []
    real = HComplexMap.validate

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(HComplexMap, "validate", counting)
    f = HComplexMap.identity_h(toy_h())
    assert check_h_axioms(h_cone(f)).ok
    assert calls == [f]


def test_h_tensor_axioms_and_weights():
    h = toy_h()
    t = h_tensor(h, h)
    assert check_h_axioms(t).ok
    # squares of an exact complex stay exact
    assert all(d == 0 for d in t.base.homology().dims.values())
    # defect doubles: weight 2 terms with zero action
    assert t.base.term(0).defect().maps[0] == Matrix.from_rows([[2]])


def test_h_tensor_with_genuine_sl2_factor():
    P = torus_pair()
    c = single_term(finite_irrep(2, P))
    h = zero_contraction(c)
    t = h_tensor(h, h)
    assert check_h_axioms(t).ok
    assert t.base.dim_at(0) == 9


def rand_scalar(rng):
    return Scalar(rng.randint(-2, 2), rng.randint(-1, 1))


def test_randomized_pipelines_keep_d_squared_zero():
    from hch.complexes import cone, hom_complex, plain_space, trivial_pair
    rng = random.Random(77)
    for _ in range(30):
        dims = [rng.randint(1, 2) for _ in range(2)]
        terms = {n: plain_space(d) for n, d in enumerate(dims)}
        d0 = Matrix(dims[1], dims[0], {(r, c): rand_scalar(rng)
                                       for r in range(dims[1])
                                       for c in range(dims[0])
                                       if rng.random() < 0.5})
        c = Complex(trivial_pair(), terms, {0: d0} if not d0.is_zero() else {})
        for _ in range(3):
            op = rng.choice(["shift", "cone", "tensor", "hom"])
            chi = c.euler_characteristic()
            if op == "shift":
                k = rng.choice([-1, 1])
                c2 = c.shift(k)
                assert c2.euler_characteristic() == (-1) ** k * chi
            elif op == "cone":
                c2, _, _ = cone(ComplexMap.identity(c))
                assert c2.euler_characteristic() == 0
            elif op == "tensor":
                c2 = tensor_complex(c, c)
                assert c2.euler_characteristic() == chi * chi
            else:
                c2 = hom_complex(c, c)
                assert c2.euler_characteristic() == chi * chi
            assert c2.check_complex().ok
            if sum(c2.dim_at(n) for n in c2.degrees()) > 40:
                break
            c = c2


# -- the interior-column check against the whole-term formulation ---------------


def ref_check_h_axioms(h: HComplex):
    """The whole-term formulation of check_h_axioms, kept as its reference:
    each i-map and action is restricted where it is used, and the defect is
    built on every column and then restricted.  Every product and column pick
    is the coordinate-map one of ``dense_reference``, so the check and its
    oracle share no matrix kernel."""
    base = h.base
    pair = base.pair
    where = "" if base.interior is None else " on an interior column"
    bad = [f"d^2 != 0 at degree {n}{where}" for n in base.degrees()
           if not ref.matmul(base.diff(n + 1),
                             ref.restrict_columns(base.diff(n), base.interior_cols(n))).is_zero()]
    trank = pair.K.torus_rank
    for n in base.degrees():
        cols = base.interior_cols(n)
        tn = base.term(n)
        tprev = base.term(n - 1)
        d_r = ref.restrict_columns(base.diff(n), cols)
        defects = tn.defect().maps
        for t in range(trank):
            i_m = h.i_at(t, n)
            i_r = ref.restrict_columns(i_m, cols)
            for (r, c), _ in i_m.entries.items():
                if tprev.k_weights[r] != tn.k_weights[c]:
                    bad.append(f"axiom i: i_xi{t} mixes K-weights at degree {n}")
                    break
            for j in range(pair.g.dim):
                lhs = ref.matmul(tprev.g_action[j], i_r)
                rhs = ref.matmul(i_m, ref.restrict_columns(tn.g_action[j], cols))
                if lhs != rhs:
                    bad.append(f"axiom ii: i_xi{t} vs g-basis {j} at degree {n}")
            for s in range(t, trank):
                anti = (ref.matmul(h.i_at(s, n - 1), i_r)
                        + ref.matmul(h.i_at(t, n - 1), ref.restrict_columns(h.i_at(s, n), cols)))
                if not anti.is_zero():
                    bad.append(f"axiom iii: i_xi{t} i_xi{s} + i_xi{s} i_xi{t} != 0 at degree {n}")
            w = ref.restrict_columns(defects[t], cols)
            hom = ref.matmul(base.diff(n - 1), i_r) + ref.matmul(h.i_at(t, n + 1), d_r)
            if hom != w:
                bad.append(f"axiom iv: d i + i d != w for xi{t} at degree {n}")
    return tuple(bad)


RESOLUTION_PAIRS = {"so2": so2_pair, "torus": torus_pair, "trivial_k": trivial_k_pair,
                    "sl2_sum": sl2_sum_pair}


def resolution_h(name: str, cutoff: int) -> HComplex:
    return StandardResolution(RESOLUTION_PAIRS[name](), cutoff).hcomplex()


def assert_same_report(h: HComplex):
    want = ref_check_h_axioms(h)
    assert check_h_axioms(h).violations == want
    return want


@pytest.mark.parametrize("name, cutoff", [(name, c) for name in ("so2", "torus", "trivial_k")
                                          for c in (2, 3, 4)] + [("sl2_sum", 2)])
def test_check_h_axioms_matches_the_whole_term_check_on_resolutions(name, cutoff):
    assert assert_same_report(resolution_h(name, cutoff)) == ()


@pytest.mark.parametrize("op", ["tensor", "cone", "shift"])
def test_check_h_axioms_matches_the_whole_term_check_on_h_constructions(op):
    h = resolution_h("so2", 2)
    built = {"tensor": lambda: h_tensor(h, h),
             "cone": lambda: h_cone(HComplexMap.identity_h(h)),
             "shift": lambda: h_shift(h)}[op]()
    assert assert_same_report(built) == ()


def plus_entry(m: Matrix, rc, amount=ONE) -> Matrix:
    """m with amount (1 by default) added to entry rc."""
    ents = dict(m.entries)
    ents[rc] = ents.get(rc, ZERO) + amount
    return Matrix(m.rows, m.cols, ents)


def with_i_entry(h: HComplex, t: int, n: int, rc, amount=ONE) -> HComplex:
    """h with amount (1 by default) added to entry rc of i_xi_t at degree n."""
    maps = {s: dict(per) for s, per in h.i_maps.items()}
    maps[t][n] = plus_entry(h.i_at(t, n), rc, amount)
    return HComplex(h.base, maps)


def with_base(h: HComplex, terms=None, diffs=None) -> HComplex:
    """h with some terms or differentials of its base replaced."""
    b = h.base
    return HComplex(Complex(b.pair, {**b.terms, **(terms or {})}, {**b.diffs, **(diffs or {})},
                            b.interior), h.i_maps)


def first_entry(h: HComplex, n: int, row_ok):
    """(r, c): the first interior column c of degree n and row r of degree n - 1
    with row_ok(r, c)."""
    for c in h.base.interior_cols(n):
        for r in range(h.base.dim_at(n - 1)):
            if row_ok(r, c):
                return r, c
    raise AssertionError("no such entry")


def nonzero_columns(m: Matrix):
    return {c for (_, c) in m.entries}


def corrupted(kind: str, h: HComplex, n: int, amount=ONE) -> HComplex:
    """A copy of h that breaks ``kind`` on an interior column of degree n; an
    i-map kind adds amount (1 by default) to one i-map entry."""
    base = h.base
    w = base.term(n).k_weights
    wprev = base.term(n - 1).k_weights
    if kind == "axiom i:":
        return with_i_entry(h, 0, n, first_entry(h, n, lambda r, c: wprev[r] != w[c]), amount)
    if kind == "axiom ii:":
        # the action of u+ (not in iota) gains an entry whose column i_xi0 does not kill
        j = 0
        seen = nonzero_columns(h.i_at(0, n))
        K, shift = base.pair.K, base.pair.ad_grading[j]
        c = base.interior_cols(n)[0]
        r = next(r for r in sorted(seen) if w[r] == K.add(w[c], shift))
        tn = base.term(n)
        action = list(tn.g_action)
        action[j] = plus_entry(action[j], (r, c))
        return with_base(h, terms={n: FiniteModule(tn.pair, tn.k_weights, action)})
    if kind == "axiom iii:":
        below = nonzero_columns(h.i_at(0, n - 1))
        return with_i_entry(h, 0, n, first_entry(
            h, n, lambda r, c: wprev[r] == w[c] and r in below), amount)
    if kind == "axiom iv:":
        left = nonzero_columns(base.diff(n - 1))
        return with_i_entry(h, 0, n, first_entry(
            h, n, lambda r, c: wprev[r] == w[c] and r in left), amount)
    if kind == "d^2 != 0":
        above = nonzero_columns(base.diff(n + 1))
        c = base.interior_cols(n)[0]
        r = min(above)
        return with_base(h, diffs={n: plus_entry(base.diff(n), (r, c))})
    raise ValueError(kind)


# (kind, degree): i_xi vanishes from degree -2 on (wedge^4 = 0), and d^0 = 0
CORRUPTIONS = [("axiom i:", -1), ("axiom i:", -2), ("axiom ii:", -1), ("axiom ii:", -2),
               ("axiom iii:", 0), ("axiom iii:", -1), ("axiom iv:", -1), ("axiom iv:", -2),
               ("d^2 != 0", -2), ("d^2 != 0", -3)]


@pytest.mark.parametrize("kind, n", CORRUPTIONS)
def test_check_h_axioms_matches_the_whole_term_check_on_corrupted_resolutions(kind, n):
    h = corrupted(kind, resolution_h("so2", 3), n)
    want = assert_same_report(h)
    assert any(v.startswith(kind) for v in want), want


@pytest.mark.parametrize("amount", [Scalar(Fraction(1, 3)), I], ids=["third", "i"])
@pytest.mark.parametrize("kind, n", [(k, n) for k, n in CORRUPTIONS
                                     if k in ("axiom i:", "axiom iii:", "axiom iv:")])
def test_check_h_axioms_matches_the_whole_term_check_on_a_non_integral_i_entry(kind, n, amount):
    # the identity checks meet an entry off the Gaussian integers, or one with an
    # imaginary part, in the i-map and in every product that reads it
    h = corrupted(kind, resolution_h("so2", 3), n, amount)
    want = assert_same_report(h)
    assert any(v.startswith(kind) for v in want), want


def test_identity_checks_form_no_product(monkeypatch):
    h = resolution_h("so2", 4)
    fresh = resolution_h("so2", 3).base
    products = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    assert check_h_axioms(h).ok
    assert fresh.check_complex().ok
    assert ComplexMap.identity(h.base).validate().ok
    assert HComplexMap.identity_h(h).validate().ok
    assert products == []


def test_check_h_axioms_matches_the_whole_term_check_on_two_generators():
    # i_xi1 gains an entry that i_xi0 one degree down does not kill: axiom (iii) for (0, 1)
    h = resolution_h("sl2_sum", 2)
    n = -1
    w, wprev = h.base.term(n).k_weights, h.base.term(n - 1).k_weights
    below = nonzero_columns(h.i_at(0, n - 1))
    bad = with_i_entry(h, 1, n, first_entry(h, n, lambda r, c: wprev[r] == w[c] and r in below))
    want = assert_same_report(bad)
    assert f"axiom iii: i_xi0 i_xi1 + i_xi1 i_xi0 != 0 at degree {n}" in want
