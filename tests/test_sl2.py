"""SL(2) zoo: oracle-derived principal series tables and catalog validity."""

import random
from fractions import Fraction

import pytest

from hch.bands import band_kernel, class_indices
from hch.gkmodules import check_hc
from hch.liepairs import SubpairEmbedding
from hch.linalg import add_into, sparse_columns
from hch.poly import Poly
from hch.polarfields import vector_field_apply
from hch.scalars import I, Scalar
import hch.sl2
from hch.sl2 import (
    E_MAT,
    F_MAT,
    H_MAT,
    KAPPA_MAT,
    SUBPAIR_CATALOG,
    OracleMismatchError,
    principal_series,
    sl2_branching_report,
    sl2,
    sl2_rotation_basis,
    so2_pair,
    torus_pair,
    trivial_k_pair,
)

import dense_reference as ref


def S(x):
    return Scalar(Fraction(x))


def test_sl2_relations():
    g = sl2()
    assert g.check_jacobi().ok
    e, h, f = {0: Scalar(1)}, {1: Scalar(1)}, {2: Scalar(1)}
    assert g.bracket(h, e) == {0: Scalar(2)}
    assert g.bracket(h, f) == {2: Scalar(-2)}
    assert g.bracket(e, f) == h
    # ad(h) spectrum
    assert sparse_columns(g.ad(h)) == [{0: Scalar(2)}, {}, {2: Scalar(-2)}]


def test_rotation_basis_is_isomorphic():
    """The (u+, k0, u-) structure constants match the (e,h,f) computation."""
    g = sl2()
    rot = sl2_rotation_basis()
    eb = ref.rotation_basis_embedding()
    cols = sparse_columns(eb)
    for j in range(3):
        for k in range(3):
            lhs = g.bracket(cols[j], cols[k])
            rhs = {}
            for l, c in rot.bracket_basis(j, k).items():
                for r, x in cols[l].items():
                    add_into(rhs, r, c * x)
            assert lhs == rhs, (j, k)
    assert rot.check_jacobi().ok


def test_pairs_validate():
    assert torus_pair().validate().ok
    assert so2_pair().validate().ok
    assert trivial_k_pair().validate().ok


def test_theta_table_matches_derivation():
    ps = principal_series(4, 0)
    assert ps.theta.shifts() == [-2, 2]
    # (lambda - n)/2 up, (lambda + n)/2 down
    assert ps.theta.coeff(2) == Poly([S(2), S(Fraction(-1, 2))])
    assert ps.theta.coeff(-2) == Poly([S(2), S(Fraction(1, 2))])

    ps0 = principal_series(0, 0)
    assert ps0.theta.apply_line(0) == {}


def test_kappa_is_rotation_weight():
    ps = principal_series(Fraction(7, 3), 1)
    assert ps.kappa.shifts() == [0]
    assert ps.kappa.coeff(0) == Poly([Scalar(0), I])


def test_rotation_adapted_ops():
    lam = Fraction(5, 2)
    ps = principal_series(lam, 0)
    u_plus, k0, u_minus = ps.module.band_ops
    assert u_plus.table == {2: Poly([S(lam), S(-1)])}
    assert u_minus.table == {-2: Poly([S(lam), S(1)])}
    assert k0.table == {0: Poly.x()}


def test_module_is_genuine_and_valid():
    random.seed(7)
    for _ in range(20):
        lam = Fraction(random.randint(-40, 40), random.randint(1, 9))
        eps = random.randint(0, 1)
        ps = principal_series(lam, eps)
        assert ps.module.validate().ok, lam
        assert ps.module.is_genuine()


def test_standard_basis_bracket_identities():
    random.seed(11)
    for _ in range(20):
        lam = Fraction(random.randint(-30, 30), random.randint(1, 7))
        ps = principal_series(lam, 0)
        th, e, f = ps.theta, ps.e, ps.f
        assert th.commutator(e) == e.scale(2)
        assert th.commutator(f) == f.scale(-2)
        assert e.commutator(f) == th


def test_casimir_scalar_on_principal_series():
    for lam in (0, 2, 4, Fraction(1, 2), Fraction(-7, 3)):
        ps = principal_series(lam, 0)
        rep = check_hc(ps.module)
        assert rep.ok
        want = Scalar(lam) * (Scalar(lam) + Scalar(2)) / Scalar(2)
        assert rep.eigenvalues == [want]


def test_finite_group_action_values():
    """Guards the rotation oracles in ``dense_reference`` (``w_value``,
    ``minus_identity_value``), not package code: the class indices that
    acceptance criterion 4 checks against ``w_value`` rest on them."""
    for n in range(-6, 7, 2):
        assert ref.minus_identity_value(n) == Scalar(1)
        assert ref.minus_identity_value(n + 1) == Scalar(-1)
    # w^4 = 1 and w^2 = (-1)^epsilon on every type
    for eps in (0, 1):
        for n in range(-6 + eps, 7, 2):
            w = ref.w_value(n)
            assert w ** 4 == Scalar(1)
            assert w ** 2 == Scalar((-1) ** eps)
            assert w == I ** (n % 4)


def test_u_plus_window_keeps_every_image_line():
    ps = principal_series(4, 0)
    targets, up = ps.module.band_ops[0].windowed_matrix([-2, 0, 2])
    # u+ has Ad-weight 2: the window [-2, 2] lands on [0, 4], with no line cut off
    assert targets == [0, 2, 4] and (up.rows, up.cols) == (3, 3)
    # u+ f_0 = lambda f_2 and u- f_0 = lambda f_-2
    assert up[(targets.index(2), 1)] == Scalar(4)
    assert ps.module.band_ops[2].apply_line(0)[-2] == Scalar(4)


def test_derivation_oracle_consistency_window():
    """Band tables agree with a direct vector-field application on a window."""
    lam = Fraction(9, 4)
    ps = principal_series(lam, 1)
    for n in range(-15, 16, 2):
        for op, mat in ((ps.theta, H_MAT), (ps.e, E_MAT), (ps.f, F_MAT)):
            assert op.apply_line(n) == vector_field_apply(mat, Scalar(lam), {n: Scalar(1)})


def _perturbed_oracle(extra):
    """The true oracle plus extra(n) on the shift-2 coefficient of f_n."""
    def oracle(mat, lam, f):
        (n, c), = f.items()
        out = dict(vector_field_apply(mat, lam, f))
        delta = extra(n)
        if delta:
            out[n + 2] = out.get(n + 2, Scalar(0)) + c * delta
        return out
    return oracle


def test_derivation_rejects_a_non_affine_oracle(monkeypatch):
    monkeypatch.setattr(hch.sl2, "vector_field_apply",
                        _perturbed_oracle(lambda n: Scalar(n * n)))
    with pytest.raises(OracleMismatchError, match="shift 2 coefficient not affine"):
        hch.sl2._derive_band(H_MAT, Scalar(3), 0)


def test_derivation_checks_the_whole_window_not_only_the_samples(monkeypatch):
    # right on the seven samples |n| <= 6, wrong only at the window's ends
    monkeypatch.setattr(hch.sl2, "vector_field_apply",
                        _perturbed_oracle(lambda n: Scalar(1) if abs(n) == 20 else 0))
    with pytest.raises(OracleMismatchError, match=r"disagrees with the oracle at n=-?20$"):
        hch.sl2._derive_band(E_MAT, Scalar(Fraction(7, 3)), 0)


@pytest.mark.parametrize("parity, calls", [(0, 21), (1, 20)])
def test_derivation_applies_the_oracle_once_per_window_index(monkeypatch, parity, calls):
    seen = []

    def counting(mat, lam, f):
        seen.extend(f)
        return vector_field_apply(mat, lam, f)

    monkeypatch.setattr(hch.sl2, "vector_field_apply", counting)
    for mat in (H_MAT, E_MAT, F_MAT, KAPPA_MAT):
        seen.clear()
        hch.sl2._derive_band(mat, Scalar(5), parity)
        assert len(seen) == calls
        assert sorted(seen) == [n for n in range(-20, 21) if n % 2 == parity]


def test_branching_report_derives_only_theta(monkeypatch):
    calls = []
    real = hch.sl2._derive_band

    def counting(mat, lam, parity):
        calls.append(mat)
        return real(mat, lam, parity)

    monkeypatch.setattr(hch.sl2, "_derive_band", counting)
    sl2_branching_report(4, 0)
    assert calls == [H_MAT]
    ps = principal_series(4, 0)
    assert len(calls) == 2
    ps.module
    assert calls == [H_MAT, H_MAT, E_MAT, F_MAT]
    assert ps.module is ps.module and ps.e is ps.e
    assert len(calls) == 4
    ps.kappa
    assert calls[4:] == [KAPPA_MAT]


def _items(op):
    return [(s, p.coeffs) for s, p in op.table.items()]


@pytest.mark.parametrize("eps", [0, 1])
def test_lazy_bands_equal_direct_derivation(eps):
    derive = hch.sl2._derive_band
    for lam in [*range(-4, 13), Fraction(7, 3), Fraction(-5, 2)]:
        ps = principal_series(lam, eps)
        lam = Scalar(lam)
        theta, e, f, kappa = (derive(m, lam, eps) for m in (H_MAT, E_MAT, F_MAT, KAPPA_MAT))
        for got, want in ((ps.theta, theta), (ps.e, e), (ps.f, f), (ps.kappa, kappa)):
            assert _items(got) == _items(want), lam
        i_sum = (e + f).scale(I)
        want_ops = [theta + i_sum, (e - f).scale(-I), theta - i_sum]
        assert [_items(op) for op in ps.module.band_ops] == [_items(op) for op in want_ops]


def test_e_band_mismatch_raises_on_first_read(monkeypatch):
    wrong = _perturbed_oracle(lambda n: Scalar(1) if abs(n) == 20 else 0)

    def oracle(mat, lam, f):
        return (wrong if mat == E_MAT else vector_field_apply)(mat, lam, f)

    monkeypatch.setattr(hch.sl2, "vector_field_apply", oracle)
    ps = principal_series(3, 0)
    assert ps.f == hch.sl2._derive_band(F_MAT, Scalar(3), 0)
    with pytest.raises(OracleMismatchError, match="disagrees with the oracle"):
        ps.e
    with pytest.raises(OracleMismatchError, match="disagrees with the oracle"):
        principal_series(3, 0).module


def test_subpair_catalog_validates():
    for name, make in SUBPAIR_CATALOG.items():
        emb = make()
        assert isinstance(emb, SubpairEmbedding)
        assert emb.small.validate().ok, name
        assert emb.validate().ok, name


# -- branching reports --------------------------------------------------------------


def test_branching_even_lambda_kernel_line():
    # theta kills the (x1 x2)^{lam/2} expansion for every even lam >= 0;
    # EP = H0 - H1 = 2 throughout the sweep cross-checks the dims
    for lam in range(0, 9):
        r = sl2_branching_report(lam, 0)
        assert r.certified()
        assert r.dims[1] == (1 if lam % 2 == 0 else 0), lam
        assert r.euler_characteristic() == 2, lam


def test_branching_odd_epsilon_vanishes():
    for lam in (0, 1, 3, 4):
        r = sl2_branching_report(lam, 1)
        assert r.dims == {0: 0, 1: 0} and r.certified()


def test_branching_negative_lambda():
    for lam in (-2, -4):
        r = sl2_branching_report(lam, 0)
        assert r.dims[1] == 0 and r.dims[0] == 2 and r.certified()


def test_kernel_representative_matches_power_oracle():
    # lam = 4: kernel line is the expansion of (x1 x2)^2, oracle-expanded
    r = sl2_branching_report(4, 0)
    (rep,) = r.representatives[1]
    oracle = ref.x1x2_power(2)
    # proportional: cross-multiply on the common support
    ks = sorted(oracle)
    assert sorted(rep) == ks
    ratio = rep[ks[0]] / oracle[ks[0]]
    assert all(rep[k] == ratio * oracle[k] for k in ks)
    # and the oracle expansion really is theta-killed
    theta = principal_series(4, 0).theta
    out = {}
    for n, c in oracle.items():
        for m, v in theta.apply_line(n).items():
            s = out.get(m, Scalar(0)) + c * v
            out[m] = s
    assert all(v.is_zero() for v in out.values())


def test_normalizer_branching():
    r2 = sl2_branching_report(2, 0, "torus_normalizer")
    assert r2.dims[1] == 1 and r2.certified()
    (rep,) = r2.representatives[1]
    assert set(rep) == {-2, 2}  # the kernel line lives in the rho-isotypic class
    r4 = sl2_branching_report(4, 0, "torus_normalizer")
    assert r4.dims[1] == 0  # support of the lam=4 kernel leaves n = 2 mod 4
    assert sl2_branching_report(1, 1, "torus_normalizer").dims == {0: 0, 1: 0}


def test_w_fixed_theta_kernel_is_4z():
    # w sends x1 x2 to -x1 x2, so the theta-kernel line (x1 x2)^(lam/2) is
    # w-fixed (on the class n = 0 mod 4) exactly when 4 | lam, and lives on
    # the class n = 2 mod 4 otherwise: the 4Z>=0 set is this w-fixed line
    for lam in range(-4, 13):
        theta = principal_series(lam, 0).theta
        for residue in (0, 2):
            dim, reps, stab = band_kernel(theta, class_indices(residue, 4))
            want = lam >= 0 and lam % 4 == residue
            assert stab.certified and dim == (1 if want else 0), (lam, residue)
            if want:
                (rep,) = reps
                assert sorted(rep) == sorted(ref.x1x2_power(lam // 2)), lam


def test_so2_branching():
    assert sl2_branching_report(5, 0, "so2").dims == {0: 1}
    assert sl2_branching_report(5, 1, "so2").dims == {0: 0}
