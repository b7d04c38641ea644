"""sl2 constructors: pairs, finite irreps, and principal-series band models.

Basis conventions, fixed once:
  standard basis (e, h, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h;
  rotation-adapted basis (u+, k0, u-) with u± = h ± i(e+f), k0 = -i(e-f),
  so that (u+/2, k0, u-/2) is again a standard triple and k0 generates the
  Lie algebra of the rotation group.

Principal-series band tables are never written down by hand: they are
derived per lambda from the polar vector-field oracle.  Each table takes one
oracle pass over a check window of K-types: the coefficients are interpolated
exactly in the K-type index from three of those images, the fewest that expose
a coefficient that is not affine, and the table is then re-verified against
every image of the window, which alone decides whether it is accepted.  The
verified lines stay with the operator for the windows that read them
afterwards.  ``principal_series`` derives
only the theta table up front, which is all the branching reports read; the
e, f and kappa tables and the rotation-adapted module are derived, and checked
the same way, when they are first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

from .bands import (
    BandOp,
    band_cokernel,
    band_kernel,
    class_indices,
)
from .reports import HomologyReport
from .gkmodules import BandModule, FiniteModule
from .liepairs import CharacterRestriction, DiagGroup, LieAlgebra, Matrix, Pair, SubpairEmbedding
from .poly import interpolate
from .polarfields import vector_field_apply
from .scalars import I, ONE, ZERO, Scalar, as_scalar

# matrices of the standard basis as vector-field data ((a,b),(c,d))
E_MAT = ((0, 1), (0, 0))
F_MAT = ((0, 0), (1, 0))
H_MAT = ((1, 0), (0, -1))
KAPPA_MAT = ((0, 1), (-1, 0))
CHECK_RADIUS = 20  # _derive_band checks its tables on the K-types |n| <= this


def sl2() -> LieAlgebra:
    return LieAlgebra(3, ["e", "h", "f"], {
        (0, 1): {0: Scalar(-2)},   # [e,h] = -2e
        (1, 2): {2: Scalar(-2)},   # [h,f] = -2f
        (0, 2): {1: Scalar(1)},    # [e,f] = h
    })


def sl2_rotation_basis() -> LieAlgebra:
    # [u+,u-] = 4 k0, [k0, u±] = ±2 u±
    return LieAlgebra(3, ["u+", "k0", "u-"], {
        (0, 1): {0: Scalar(-2)},
        (1, 2): {2: Scalar(-2)},
        (0, 2): {1: Scalar(4)},
    })


def torus_pair() -> Pair:
    """(sl2, one-torus) with the torus embedded on h; weights (2, 0, -2)."""
    g = sl2()
    K = DiagGroup(torus_rank=1)
    grading = [K.character([2]), K.character([0]), K.character([-2])]
    iota = Matrix.from_rows([[0], [1], [0]])
    return Pair(g, K, grading, iota)


def trivial_k_pair() -> Pair:
    """(sl2, {1}): the pair with trivial group, for absolute Lie algebra homology."""
    g = sl2()
    K = DiagGroup()
    return Pair(g, K, [K.zero_char()] * 3, Matrix.zeros(3, 0))


def so2_pair() -> Pair:
    """(sl2, SO(2)) in the rotation-adapted basis; k0 spans the torus algebra."""
    g = sl2_rotation_basis()
    K = DiagGroup(torus_rank=1)
    grading = [K.character([2]), K.character([0]), K.character([-2])]
    iota = Matrix.from_rows([[0], [1], [0]])
    return Pair(g, K, grading, iota)


def finite_irrep(m: int, pair: Optional[Pair] = None) -> FiniteModule:
    """The (m+1)-dimensional irrep, highest weight m, over torus_pair by default.

    Basis v_0..v_m with h v_k = (m-2k) v_k, f v_k = v_{k+1},
    e v_k = k(m-k+1) v_{k-1}.
    """
    if pair is None:
        pair = torus_pair()
    n = m + 1
    e_m = Matrix._raw(n, n, {k: {k - 1: as_scalar(k * (m - k + 1))} for k in range(1, n)})
    h_m = Matrix._raw(n, n, {k: {k: as_scalar(m - 2 * k)} for k in range(n) if m != 2 * k})
    f_m = Matrix._raw(n, n, {k: {k + 1: ONE} for k in range(n - 1)})
    if pair.K.torus_rank == 1:
        weights = [pair.K.character([m - 2 * k]) for k in range(n)]
    else:
        weights = [pair.K.zero_char()] * n
    return FiniteModule(pair, weights, [e_m, h_m, f_m])


def finite_irrep_so2(m: int) -> FiniteModule:
    """F_m over (sl2, SO(2)): k0-eigenbasis with u± = 2 x (standard triple)."""
    pair = so2_pair()
    std = finite_irrep(m)
    return FiniteModule(
        pair,
        [pair.K.character([m - 2 * k]) for k in range(m + 1)],
        [std.g_action[0].scale(Scalar(2)), std.g_action[1], std.g_action[2].scale(Scalar(2))],
    )


# -- principal series ----------------------------------------------------------


class OracleMismatchError(RuntimeError):
    """The interpolated band table disagrees with the vector-field oracle."""


def _derive_band(mat, lam, parity: int) -> BandOp:
    """Band table of a vector field on the K-types f_n, n = parity mod 2.

    One oracle pass: the vector field is applied once to each f_n of the
    check window |n| <= CHECK_RADIUS.  The shift-s coefficient is interpolated
    in n from the images at the three samples n = parity + 2t, |t| <= 1, must
    be affine there, and the resulting table must then reproduce every image
    of the window; checking it evaluates, and keeps, the table's lines there.

    Three samples suffice: two fix an affine coefficient, and a third is the
    fewest that exposes a degree-2 one.  An oracle that some affine table
    matches on the whole window passes both tests with that table, and no
    other oracle passes the window check, so the tables accepted are the same
    for any sample set of at least three window indices.
    """
    lam = as_scalar(lam)
    samples = [parity + 2 * t for t in range(-1, 2)]
    window = [n for n in range(-CHECK_RADIUS, CHECK_RADIUS + 1) if n % 2 == parity]
    images = {n: vector_field_apply(mat, lam, {n: ONE}) for n in window}
    by_shift: Dict[int, List] = {}
    for n in samples:
        for t, c in images[n].items():
            by_shift.setdefault(t - n, []).append((n, c))
    table = {}
    for s, pts in by_shift.items():
        at = dict(pts)
        p = interpolate([(n, at.get(n, ZERO)) for n in samples])
        if p.degree > 1:
            raise OracleMismatchError(f"shift {s} coefficient not affine in n: {p!r}")
        if not p.is_zero():
            table[s] = p
    op = BandOp(table)
    for n in window:
        if op.apply_line(n) != images[n]:
            raise OracleMismatchError(f"band table disagrees with the oracle at n={n}")
    return op


@dataclass
class PrincipalSeriesModel:
    """K-finite model of the spherical/non-spherical principal series.

    f_n = r^lam e^{i n phi}, n = epsilon mod 2.  Band tables for the standard
    and rotation-adapted bases, all oracle-derived.  theta is derived and
    checked on construction; e, f, kappa and module (the BandModule over the
    (sl2, SO(2)) pair) are derived and checked on first read, so an oracle
    mismatch in one of them raises OracleMismatchError there.
    """

    lam: Scalar
    epsilon: int
    theta: BandOp

    @cached_property
    def e(self) -> BandOp:
        return _derive_band(E_MAT, self.lam, self.epsilon)

    @cached_property
    def f(self) -> BandOp:
        return _derive_band(F_MAT, self.lam, self.epsilon)

    @cached_property
    def kappa(self) -> BandOp:
        return _derive_band(KAPPA_MAT, self.lam, self.epsilon)

    @cached_property
    def module(self) -> BandModule:
        # rotation-adapted ops: u± = theta ± i(e+f), k0 = -i(e-f)
        i_sum = (self.e + self.f).scale(I)
        u_plus = self.theta + i_sum
        u_minus = self.theta - i_sum
        k0 = (self.e - self.f).scale(-I)
        return BandModule(so2_pair(), self.epsilon, [u_plus, k0, u_minus])


def principal_series(lam, epsilon: int) -> PrincipalSeriesModel:
    lam = as_scalar(lam)
    epsilon = epsilon % 2
    return PrincipalSeriesModel(lam, epsilon, _derive_band(H_MAT, lam, epsilon))


# -- subpair catalog -------------------------------------------------------------


def diagonal_torus_subpair() -> SubpairEmbedding:
    """H = diagonal torus, K^H = {±1}: h = C theta, theta = (u+ + u-)/2."""
    big = so2_pair()
    h = LieAlgebra(1, ["theta"])
    KH = DiagGroup(finite_invariants=[2])
    small = Pair(h, KH, [KH.zero_char()], Matrix.zeros(1, 0))
    alg = Matrix.from_rows([[Scalar("1/2")], [Scalar(0)], [Scalar("1/2")]])
    grp = CharacterRestriction(big.K, KH, torus_map=[], finite_map=[[1]])
    return SubpairEmbedding(small, big, alg, grp)


def torus_normalizer_subpair() -> SubpairEmbedding:
    """H = normalizer of the diagonal torus, K^H = <w> = Z/4; w flips theta."""
    big = so2_pair()
    h = LieAlgebra(1, ["theta"])
    KH = DiagGroup(finite_invariants=[4])
    small = Pair(h, KH, [KH.character([], [2])], Matrix.zeros(1, 0))
    alg = Matrix.from_rows([[Scalar("1/2")], [Scalar(0)], [Scalar("1/2")]])
    grp = CharacterRestriction(big.K, KH, torus_map=[], finite_map=[[1]])
    return SubpairEmbedding(small, big, alg, grp)


def so2_subpair() -> SubpairEmbedding:
    """H = K = SO(2): h = C k0 with the identity character map."""
    big = so2_pair()
    h = LieAlgebra(1, ["k0"])
    KH = DiagGroup(torus_rank=1)
    small = Pair(h, KH, [KH.character([0])], Matrix.from_rows([[1]]))
    alg = Matrix.from_rows([[Scalar(0)], [Scalar(1)], [Scalar(0)]])
    grp = CharacterRestriction(big.K, KH, torus_map=[[1]], finite_map=[])
    return SubpairEmbedding(small, big, alg, grp)


SUBPAIR_CATALOG = {
    "diagonal_torus": diagonal_torus_subpair,
    "torus_normalizer": torus_normalizer_subpair,
    "so2": so2_subpair,
}


# -- branching homology via bands --------------------------------------------------


def _coinvariant_classes(epsilon: int, subpair_name: str):
    """Window generators for the C1 and C0 K-type classes, or empty ones.

    Coinvariants under K^H keep the K-types on which the K^H-character of the
    chain term is trivial: for mu2 that is the even types, for Z/4 the types
    with i^n = -1 (C1, pairing with the theta line) resp. i^n = 1 (C0).
    """
    def empty(N: int):
        return []

    if subpair_name == "diagonal_torus":
        if epsilon == 0:
            even = class_indices(0, 2)
            return even, even
        return empty, empty
    if subpair_name == "torus_normalizer":
        if epsilon == 0:
            return class_indices(2, 4), class_indices(0, 4)
        return empty, empty
    raise ValueError(f"no band-route classes for subpair {subpair_name!r}")


def sl2_branching_report(lam, epsilon: int,
                         subpair_name: str = "diagonal_torus") -> HomologyReport:
    """H_* of the two-term complex C1 -> C0, v -> theta v, on the K-finite model.

    H1 is a genuine global kernel (no output truncation); H0 comes from the
    adjoint recurrence on the graded dual.  Both carry window certificates.
    For the so2 subpair the complex sits in degree 0 and is exact and finite.
    """
    lam = as_scalar(lam)
    epsilon = epsilon % 2
    report = HomologyReport()
    if subpair_name == "so2":
        d0 = 1 if epsilon == 0 else 0
        report.dims[0] = d0
        report.representatives[0] = [{0: Scalar(1)}] if d0 else []
        return report
    c1, c0 = _coinvariant_classes(epsilon, subpair_name)
    theta = principal_series(lam, epsilon).theta
    dim1, reps1, stab1 = band_kernel(theta, c1)
    dim0, reps0, stab0 = band_cokernel(theta, c1, c0)
    report.dims = {0: dim0, 1: dim1}
    report.representatives = {0: reps0, 1: reps1}
    report.stabilization = {0: stab0, 1: stab1}
    return report
