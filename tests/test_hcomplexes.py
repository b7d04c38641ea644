"""Contraction axioms, h-constructions, and their failure reporting."""

import random

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
from hch.scalars import Scalar
from hch.sl2 import finite_irrep, torus_pair


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

    def counted(self):
        calls.append(self)
        return defect(self)

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
