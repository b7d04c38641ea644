"""The sign table is tiny but everything leans on it; pin each entry."""

from hch import signs


def test_shift_signs():
    assert [signs.shift_diff_sign(k) for k in (-1, 0, 1, 2)] == [-1, 1, -1, 1]
    assert [signs.shift_contraction_sign(k) for k in (-1, 0, 1, 2)] == [-1, 1, -1, 1]


def test_cone_signs():
    assert signs.cone_shifted_part_sign() == -1
    assert signs.cone_contraction_shifted_sign() == -1


def test_koszul_and_tensor_signs():
    assert [signs.koszul_right_sign(i) for i in (0, 1, 2, 3)] == [1, -1, 1, -1]
    assert [signs.tensor_contraction_right_sign(p) for p in (0, 1, 2)] == [1, -1, 1]


def test_hom_sign():
    # delta f = d_N f + sign * f d_M; sign must make delta^2 = 0
    assert signs.hom_precompose_sign(0) == -1
    assert signs.hom_precompose_sign(1) == 1
    for n in range(-3, 4):
        assert signs.hom_precompose_sign(n) * signs.hom_precompose_sign(n + 1) == -1


def test_wedge_signs():
    assert [signs.wedge_out_sign(i) for i in range(4)] == [1, -1, 1, -1]
    assert signs.wedge_pair_sign(0, 1) == -1
    assert signs.wedge_pair_sign(1, 2) == -1
    assert signs.wedge_pair_sign(0, 2) == 1


def test_degree_sign_is_an_int_in_every_degree():
    assert [signs.degree_sign(n) for n in (-3, -2, -1, 0, 1, 2)] == [-1, 1, -1, 1, -1, 1]
    assert all(type(signs.degree_sign(n)) is int for n in range(-4, 5))
