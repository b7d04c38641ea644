"""Straightening in U(sl2) and in small abelian algebras."""

import random

from hch.hcomplexes import check_h_axioms
from hch.pbw import PBW, degree
from hch.resolution import StandardResolution
from hch.scalars import Scalar
from hch.sl2 import sl2, so2_pair
from hch.liepairs import LieAlgebra


def S(x):
    return Scalar(x)


def test_abelian_is_polynomial():
    u = PBW(LieAlgebra(2, ["x", "y"]))
    e = u.times_gen(u.times_gen(u.gen(1), 0), 1)  # y x y
    assert e == {(1, 2): S(1)}


def test_sl2_basic_straightening():
    # basis order (e, h, f); f e = e f - h
    u = PBW(sl2())
    fe = u.mul(u.gen(2), u.gen(0))
    assert fe == {(1, 0, 1): S(1), (0, 1, 0): S(-1)}
    # h e = e h + 2 e
    he = u.mul(u.gen(1), u.gen(0))
    assert he == {(1, 1, 0): S(1), (1, 0, 0): S(2)}
    # f h = h f + 2 f
    fh = u.mul(u.gen(2), u.gen(1))
    assert fh == {(0, 1, 1): S(1), (0, 0, 1): S(2)}


def test_casimir_is_central():
    u = PBW(sl2())
    # Omega = e f + f e + h^2/2 in U(sl2)
    ef = u.mul(u.gen(0), u.gen(2))
    fe = u.mul(u.gen(2), u.gen(0))
    h2 = u.mul(u.gen(1), u.gen(1))
    omega = {}
    for src, w in ((ef, S(1)), (fe, S(1)), (h2, Scalar("1/2"))):
        for m, c in src.items():
            omega[m] = omega.get(m, S(0)) + c * w
    omega = {m: c for m, c in omega.items() if not c.is_zero()}
    for j in range(3):
        left = u.mul(u.gen(j), omega)
        right = u.mul(omega, u.gen(j))
        assert left == right


def test_associativity_random_words():
    u = PBW(sl2())
    rng = random.Random(11)
    for _ in range(25):
        word = [rng.randrange(3) for _ in range(rng.randint(2, 5))]
        cut = rng.randint(1, len(word) - 1)

        def of(w):
            e = u.unit()
            for j in w:
                e = u.times_gen(e, j)
            return e

        assert u.mul(of(word[:cut]), of(word[cut:])) == of(word)


def test_filtration_respected():
    u = PBW(sl2())
    rng = random.Random(4)
    for _ in range(20):
        word = [rng.randrange(3) for _ in range(4)]
        e = u.unit()
        for j in word:
            e = u.times_gen(e, j)
        assert all(degree(m) <= 4 for m in e)
        assert any(degree(m) == 4 for m in e)


def test_monomial_enumeration():
    u = PBW(sl2())
    monos = u.monomials_up_to(2)
    assert len(monos) == 10  # C(3+2,3) with total degree <= 2
    assert monos[0] == (0, 0, 0)
    assert all(degree(a) <= degree(b) for a, b in zip(monos, monos[1:]))
    assert len(set(monos)) == len(monos)


def test_cached_products_are_returned_unchanged_and_never_mutated():
    # mono_times_gen hands out its cached element itself; building and checking
    # a resolution through one PBW must leave every cached product as a fresh
    # PBW computes it
    res = StandardResolution(so2_pair(), 4)
    assert check_h_axioms(res.hcomplex()).ok and res.check_exactness().ok
    u = res.u
    assert u.mono_times_gen((1, 0, 1), 0) is u.mono_times_gen((1, 0, 1), 0)
    fresh = PBW(u.g)
    assert len(u._mono_gen) > 50
    for (m, j), e in list(u._mono_gen.items()):
        assert e == fresh.mono_times_gen(m, j), (m, j)
