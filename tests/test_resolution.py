"""Truncated standard resolutions: axioms, exactness, small closed forms."""

import pytest

from hch.hcomplexes import check_h_axioms, h_cone, h_shift, h_tensor, HComplexMap
from hch.liepairs import DiagGroup, LieAlgebra, Pair
from hch.linalg import Matrix
from hch.resolution import StandardResolution
from hch.scalars import Scalar
from hch.sl2 import torus_pair, trivial_k_pair


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
