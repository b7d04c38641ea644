"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Every expected value here is either proved trivially, derived by an
independent oracle implemented elsewhere in the test suite, or taken from the
source text this package models.  All comparisons are exact (Q(i) arithmetic,
tolerance zero); runtime bounds are wall-clock seconds.

Criterion 1 asserts that, for the diagonal torus at epsilon = 0, H1 is a line
exactly when lambda is an even integer >= 0: theta kills the expansion of
(x1 x2)^(lambda/2), and nothing else.  The proof sits in a comment beside the
expected table.  The commonly stated sharper set 4Z>=0 belongs to the w-fixed
part of that line (the vectors fixed by the whole torus normalizer) and is
pinned in the sl2 test module; criterion 3 cross-checks the kernel
representative against the oracle.
"""

import random
import time
from fractions import Fraction

import pytest

from hch.bands import class_indices
from hch.complexes import ComplexMap, cone, hom_complex, tensor_complex
from hch.gkmodules import restrict_module, trivial_module
from hch.hcomplexes import HComplexMap, check_h_axioms, h_cone, h_shift, h_tensor
from hch.liepairs import SubpairEmbedding
from hch.relhomology import ext_via_chain_maps, ext_via_duality, rel_homology
from hch.resolution import StandardResolution
from hch.scalars import Scalar
from hch.sl2 import (
    SUBPAIR_CATALOG,
    finite_irrep,
    finite_irrep_so2,
    principal_series,
    sl2_branching_report,
    so2_pair,
    trivial_k_pair,
)

import dense_reference as ref
from test_complexes import random_complex


def _line(k: int, ok: bool, detail: str):
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_dichotomy():
    t0 = time.monotonic()
    # K^H = {+-1} acts trivially at epsilon = 0, so H1 = ker theta on the even
    # K-types, theta = x1 d1 - x2 d2.  theta (x1 x2)^k = k (x1 x2)^k - k (x1 x2)^k
    # = 0, and (x1 x2)^k = r^(2k) (sin 2phi)^k / 2^k is a nonzero vector of the
    # model at lambda = 2k: H1 != 0 at every even lambda >= 0.  Conversely theta
    # sends e_n to (lambda-n)/2 e_(n+2) + (lambda+n)/2 e_(n-2), so a kernel vector
    # (finite support) has top index lambda and bottom index -lambda, hence lambda
    # is an even integer >= 0, and the recurrence fixes it from its top entry.
    expected = {0: 1, 2: 1, 4: 1, 6: 1, 8: 1,
                1: 0, 3: 0, 5: 0, 7: 0, -2: 0, -4: 0}
    got = {}
    mismatches = []
    for lam, want in expected.items():
        rep = sl2_branching_report(lam, 0)
        assert rep.certified(), f"stabilization not certified at lambda={lam}"
        got[lam] = rep.dims[1]
        if got[lam] != want:
            mismatches.append(f"lambda={lam}: expected dim H1={want}, computed {got[lam]}")
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"
    _line(1, not mismatches,
          f"dim H1 over lambda sweep = {got} in {elapsed:.1f}s"
          + ("" if not mismatches else "; " + "; ".join(mismatches)))
    if mismatches:
        pytest.fail("H1 is not the theta-kernel line exactly at even lambda >= 0: "
                    + "; ".join(mismatches))


def test_criterion_02_odd_case_vanishing():
    for lam in (0, 1, 3, 4):
        rep = sl2_branching_report(lam, 1)
        assert rep.dims == {0: 0, 1: 0}, f"lambda={lam}: {rep.dims}"
        assert rep.certified()
    _line(2, True, "epsilon=1: H0 = H1 = 0 at lambda in {0,1,3,4}")


def test_criterion_03_kernel_representative_oracle():
    rep = sl2_branching_report(4, 0)
    (vec,) = rep.representatives[1]
    oracle = ref.x1x2_power(2)
    ks = sorted(oracle)
    assert sorted(vec) == ks
    ratio = vec[ks[0]] / oracle[ks[0]]
    assert not ratio.is_zero()
    assert all(vec[k] == ratio * oracle[k] for k in ks)
    _line(3, True, f"lambda=4 kernel line is {ratio} * expansion of (x1 x2)^2, exactly")


def test_criterion_04_normalizer_structure():
    t0 = time.monotonic()
    minus_one = Scalar(-1)
    one = Scalar(1)
    for N in (6, 10, 14):
        window = [n for n in range(-N, N + 1) if n % 2 == 0]
        rho = [n for n in window if ref.w_value(n) == minus_one]
        triv = [n for n in window if ref.w_value(n) == one]
        assert class_indices(2, 4)(N) == rho, f"C1 window {N}"
        assert class_indices(0, 4)(N) == triv, f"C0 window {N}"
    dims = {}
    for lam in (2, 4):
        rep = sl2_branching_report(lam, 0, "torus_normalizer")
        assert rep.certified()
        dims[lam] = (rep.dims[0], rep.dims[1])
        assert all(isinstance(d, int) and d >= 0 for d in dims[lam])
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"criterion 4 took {elapsed:.1f}s"
    assert dims[2][1] == 1 and dims[4][1] == 0
    _line(4, True,
          f"C1/C0 match the rho/trivial isotypic windows; derived H dims {dims} "
          f"with certificates in {elapsed:.1f}s")


def test_criterion_05_ext_route_agreement():
    t0 = time.monotonic()
    checked = 0
    big = so2_pair()
    modules = [trivial_module(big)] + [finite_irrep_so2(m) for m in range(1, 5)]
    for name, make in SUBPAIR_CATALOG.items():
        emb = make()
        for M in modules:
            small_M = restrict_module(emb, M)
            for n in range(4):
                a = ext_via_duality(emb, small_M, n)
                b = ext_via_chain_maps(emb, small_M, n)
                assert a == b, f"{name}, dim {M.dim} module, n={n}: {a} != {b}"
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"criterion 5 took {elapsed:.1f}s"
    _line(5, True, f"duality and chain-map Ext agree on {checked} cases in {elapsed:.1f}s")


def test_criterion_06_whitehead_vanishing():
    pair = trivial_k_pair()
    emb = SubpairEmbedding.identity(pair)
    for m in range(1, 5):
        rep = rel_homology(emb, finite_irrep(m, pair))
        for n in range(4):
            assert rep.dims.get(n, 0) == 0, f"F_{m}, n={n}: {rep.dims}"
    _line(6, True, "H_n(sl2, trivial group; F_m) = 0 for m in 1..4, n in 0..3")


def test_criterion_07_h_axiom_suite():
    t0 = time.monotonic()
    res = StandardResolution(so2_pair(), 4)
    h = res.hcomplex()
    assert check_h_axioms(h).ok, "truncated resolution"
    assert check_h_axioms(h_tensor(h, h)).ok, "tensor of truncations"
    assert check_h_axioms(h_shift(h)).ok, "shift"
    assert check_h_axioms(h_cone(HComplexMap.identity_h(h))).ok, "cone"
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"criterion 7 took {elapsed:.1f}s"
    _line(7, True, f"contraction axioms hold for resolution/tensor/shift/cone "
                   f"in {elapsed:.1f}s")


def test_criterion_08_sign_convention_properties():
    t0 = time.monotonic()
    rng = random.Random(2024)
    for trial in range(100):
        m = random_complex(rng)
        n = random_complex(rng)
        sh = m.shift(1)
        cn, _, _ = cone(ComplexMap.identity(m))
        tn = tensor_complex(m, n)
        hm = hom_complex(m, n)
        for c in (m, n, sh, cn, tn, hm):
            assert c.check_complex().ok, f"trial {trial}"
        assert sh.euler_characteristic() == -m.euler_characteristic()
        assert cn.homology().dims == {k: 0 for k in cn.homology().dims}
        assert tn.euler_characteristic() == m.euler_characteristic() * n.euler_characteristic()
        assert hm.euler_characteristic() == m.euler_characteristic() * n.euler_characteristic()
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"criterion 8 took {elapsed:.1f}s"
    _line(8, True, f"d^2 = 0 and Euler identities on 100 randomized pipelines "
                   f"in {elapsed:.1f}s")


def test_criterion_09_band_model_consistency():
    rng = random.Random(7)
    for _ in range(20):
        lam = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        eps = rng.randint(0, 1)
        ps = principal_series(lam, eps)
        assert ps.theta.commutator(ps.e) == ps.e.scale(Scalar(2))
        assert ps.theta.commutator(ps.f) == ps.f.scale(Scalar(-2))
        assert ps.e.commutator(ps.f) == ps.theta
    lam = Fraction(5, 3)
    ps = principal_series(lam, 1)
    omega = ps.e @ ps.f + ps.f @ ps.e + (ps.theta @ ps.theta).scale(Scalar(Fraction(1, 2)))
    c = Scalar(lam) * (Scalar(lam) + Scalar(2)) / Scalar(2)
    for n in range(-19, 20, 2):
        assert omega.apply_line(n) == ({n: c} if not c.is_zero() else {})
    _line(9, True, f"bracket identities for 20 random lambda; Casimir scalar "
                   f"{c} on |n| <= 20 at lambda = {lam}")


def test_criterion_10_finiteness_shadow():
    finite = []
    for lam, eps, name in ((0, 0, "diagonal_torus"), (4, 0, "diagonal_torus"),
                           (2, 0, "torus_normalizer"), (1, 1, "diagonal_torus"),
                           (3, 0, "so2")):
        rep = sl2_branching_report(lam, eps, name)
        assert rep.certified()
        for n, d in rep.dims.items():
            assert isinstance(d, int) and d >= 0
            finite.append(d)
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    M = restrict_module(emb, finite_irrep_so2(2))
    rep = rel_homology(emb, M)
    for n, d in rep.dims.items():
        assert isinstance(d, int) and d >= 0
        finite.append(d)
    _line(10, True, f"every computed H/Ext dimension is a finite certified "
                    f"integer ({len(finite)} values)")
