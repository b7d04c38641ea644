import pytest
from hypothesis import given, settings, strategies as st

from hch.liepairs import (
    CharacterRestriction,
    DiagGroup,
    LieAlgebra,
    Pair,
    SubpairEmbedding,
)
from hch.linalg import Matrix, vec
from hch.scalars import Scalar


def make_sl2():
    # basis order (e, h, f): [h,e]=2e, [h,f]=-2f, [e,f]=h
    return LieAlgebra(3, ["e", "h", "f"], {
        (0, 1): {0: Scalar(-2)},   # [e,h] = -2e, i.e. [h,e] = 2e
        (1, 2): {2: Scalar(-2)},
        (0, 2): {1: Scalar(1)},
    })


def torus_pair():
    sl2 = make_sl2()
    K = DiagGroup(torus_rank=1)
    grading = [K.character([2]), K.character([0]), K.character([-2])]
    iota = Matrix.from_columns([vec([0, 1, 0])])
    return Pair(sl2, K, grading, iota)


def test_jacobi_ok():
    assert LieAlgebra(2).check_jacobi().ok  # abelian
    assert make_sl2().check_jacobi().ok


def test_bracket_given_twice_raises():
    # the (1, 0) entry used to replace the (0, 1) one
    with pytest.raises(ValueError, match=r"bracket \[x0, x1\] given in both orders"):
        LieAlgebra(2, None, {(0, 1): {0: Scalar(1)}, (1, 0): {1: Scalar(1)}})
    with pytest.raises(ValueError, match=r"bracket entry \(0, 1, 1\) given twice"):
        LieAlgebra.from_json({"dim": 2, "brackets": [[0, 1, 1, "1", "0"], [0, 1, 1, "2", "0"]]})
    # one order only: the components add up to the bracket
    g = LieAlgebra.from_json({"dim": 2, "brackets": [[1, 0, 0, "1", "0"], [1, 0, 1, "3", "0"]]})
    assert g.bracket_basis(0, 1) == (Scalar(-1), Scalar(-3))


def test_nonzero_self_bracket_raises():
    # a nonzero self-bracket is an error, not a bracket to drop
    with pytest.raises(ValueError, match=r"bracket \[x0, x0\] must be zero"):
        LieAlgebra(2, None, {(0, 0): {1: Scalar(1)}, (0, 1): {0: Scalar(1)}})
    # a zero self-bracket is accepted and changes nothing
    g = LieAlgebra(2, None, {(1, 1): {0: Scalar(0)}, (0, 1): {0: Scalar(1)}})
    assert g.bracket_basis(1, 1) == (Scalar(0), Scalar(0))
    assert g.bracket_basis(0, 1) == (Scalar(1), Scalar(0))

def test_jacobi_violation():
    tampered = LieAlgebra(3, ["e", "h", "f"], {
        (0, 1): {0: Scalar(-2)},
        (1, 2): {2: Scalar(-2)},
        (0, 2): {0: Scalar(1)},   # [e,f] = e instead of h
    })
    rep = tampered.check_jacobi()
    assert not rep.ok
    assert any("(0,1,2)" in v for v in rep.violations)


def test_bracket_relations():
    sl2 = make_sl2()
    e, h, f = vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])
    assert sl2.bracket(h, e) == vec([2, 0, 0])
    assert sl2.bracket(e, f) == h
    assert sl2.bracket(e, e) == vec([0, 0, 0])


def test_ad_diagonal():
    sl2 = make_sl2()
    admat = sl2.ad(vec([0, 1, 0]))
    assert admat == Matrix.diagonal([2, 0, -2])


def test_validate_pair_ok():
    assert torus_pair().validate().ok


def test_validate_pair_bad_grading():
    sl2 = make_sl2()
    K = DiagGroup(torus_rank=1)
    grading = [K.character([1]), K.character([0]), K.character([-2])]
    iota = Matrix.from_columns([vec([0, 1, 0])])
    rep = Pair(sl2, K, grading, iota).validate()
    assert not rep.ok
    assert any("(dAd)" in v for v in rep.violations)


def test_finite_pair_and_characters():
    h = LieAlgebra(1, ["theta"])
    mu2 = DiagGroup(finite_invariants=[2])
    P = Pair(h, mu2, [mu2.zero_char()])
    assert P.validate().ok
    a = mu2.character(finite=[1])
    assert mu2.add(a, a) == mu2.zero_char()


def test_group_rejects_bad_invariant():
    with pytest.raises(ValueError):
        DiagGroup(finite_invariants=[3])


def test_identity_embedding_valid():
    P = torus_pair()
    assert P.validate().ok
    assert SubpairEmbedding.identity(P).validate().ok


def diagonal_torus_in_so2_pair():
    """The diagonal-torus subpair inside (sl2, SO(2)-torus), SO(2)-weight basis."""
    # so2-adapted sl2 basis (u+, k0, u-) with [k0,u+/-]=+/-2 u+/-, [u+,u-]=4 k0
    g = LieAlgebra(3, ["u+", "k0", "u-"], {
        (0, 1): {0: Scalar(-2)},
        (1, 2): {2: Scalar(-2)},
        (0, 2): {1: Scalar(4)},
    })
    K = DiagGroup(torus_rank=1)
    big = Pair(g, K, [K.character([2]), K.character([0]), K.character([-2])],
               Matrix.from_columns([vec([0, 1, 0])]))
    h = LieAlgebra(1, ["theta"])
    mu2 = DiagGroup(finite_invariants=[2])
    small = Pair(h, mu2, [mu2.zero_char()])
    # theta = (u+ + u-)/2
    alg = Matrix.from_columns([vec([Scalar(1, 0) / Scalar(2), Scalar(0), Scalar(1) / Scalar(2)])], rows=3)
    grp = CharacterRestriction(K, mu2, torus_map=[], finite_map=[[1]])
    return SubpairEmbedding(small, big, alg, grp)


def test_diagonal_torus_subpair_valid():
    emb = diagonal_torus_in_so2_pair()
    assert emb.big.validate().ok
    assert emb.small.validate().ok
    assert emb.validate().ok


def test_subpair_grading_mismatch_detected():
    emb = diagonal_torus_in_so2_pair()
    mu2 = emb.small.K
    bad_small = Pair(emb.small.g, mu2, [mu2.character(finite=[1])])
    rep = SubpairEmbedding(bad_small, emb.big, emb.alg_embed, emb.grp_embed).validate()
    assert not rep.ok
    assert any("grading mismatch" in v for v in rep.violations)


def test_pair_json_roundtrip():
    P = torus_pair()
    P2 = Pair.from_json(P.to_json())
    assert P2.validate().ok
    assert P2.g.dim == 3
    assert P2.ad_grading == P.ad_grading
    assert P2.iota == P.iota


GROUPS = [DiagGroup(), DiagGroup(2, [2, 4]), DiagGroup(1, [1, 4, 2]), DiagGroup(0, [4])]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_add_and_neg_match_validated_characters(K, data):
    ints = st.integers(-9, 9)
    a, b = (K.character(data.draw(st.lists(ints, min_size=K.torus_rank, max_size=K.torus_rank)),
                        data.draw(st.lists(ints, min_size=len(K.finite_invariants),
                                           max_size=len(K.finite_invariants))))
            for _ in range(2))
    total = K.add(a, b)
    assert total == K.character([x + y for x, y in zip(a.torus, b.torus)],
                                [x + y for x, y in zip(a.finite, b.finite)])
    assert K.neg(a) == K.character([-x for x in a.torus], [-x for x in a.finite])
    assert K.add(a, K.neg(a)) == K.zero_char()
    assert all(type(x) is int for x in total.torus + total.finite)


def test_add_and_neg_do_not_revalidate(monkeypatch):
    K = DiagGroup(1, [4])
    a, b = K.character([3], [3]), K.character([-1], [2])
    monkeypatch.setattr(DiagGroup, "character", None)
    assert K.add(a, b).finite == (1,) and K.neg(a).finite == (1,)
