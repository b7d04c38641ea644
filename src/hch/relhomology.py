"""Relative Lie algebra homology, coinvariants, and the two Ext routes.

Everything happens over the small pair (h, K^H) of a subpair embedding.
The complement p of the embedded torus algebra inside h is chosen
deterministically: all basis vectors of nonzero K^H-weight, plus the first
weight-zero basis vectors completing the torus image.  Any K^H-stable
choice gives the same homology; this one is reproducible.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import signs
from .complexes import (
    Complex,
    homotopy_classes_dim,
    plain_space,
    single_term,
    trivial_pair,
)
from .gkmodules import FiniteModule
from .liepairs import DiagGroup, Pair, SubpairEmbedding, ValidationReport
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    add_into,
    homology_at,
    independent_over,
    inverse,
    rank,
    unit_vec,
)
from .reports import HomologyReport
from .scalars import ZERO, Scalar


class NotAComplexError(ValueError):
    """A differential squared is nonzero, so there is no homology to take."""


def p_complement(pair: Pair) -> Tuple[List[Vector], Matrix]:
    """Basis of p and the projection P: h -> p (coordinates in that basis).

    Raises if the weight-zero basis vectors fail to complete the torus image
    (cannot happen for validated pairs with diagonalizable K^H).
    """
    g, K = pair.g, pair.K
    zero = K.zero_char()
    torus_cols = [pair.iota.column(t) for t in range(K.torus_rank)]
    chosen: List[int] = []
    span = Subspace(g.dim, list(torus_cols))
    for j in range(g.dim):
        if pair.ad_grading[j] != zero:
            chosen.append(j)
        elif span.add(unit_vec(g.dim, j)):
            chosen.append(j)
    p_basis = [unit_vec(g.dim, j) for j in chosen]
    cols = torus_cols + p_basis
    if len(cols) != g.dim:
        raise ValueError("complement of the torus image is not K-stable")
    change = Matrix.from_columns(cols, rows=g.dim)
    inv = inverse(change)
    ents = {}
    for r in range(len(p_basis)):
        for c in range(g.dim):
            v = inv[(K.torus_rank + r, c)]
            if not v.is_zero():
                ents[(r, c)] = v
    return p_basis, Matrix._raw(len(p_basis), g.dim, ents)


class RelativeStandardComplex:
    """C_n = K^H-coinvariants of wedge^n(p) (x) M, with the two-sum boundary."""

    def __init__(self, emb: SubpairEmbedding, M: FiniteModule):
        if M.pair.g.dim != emb.small.g.dim:
            raise ValueError("module must live over the small pair of the embedding")
        self.pair = M.pair
        self.module = M
        self.p_basis, self.projection = p_complement(self.pair)
        K = self.pair.K
        zero = K.zero_char()
        g = self.pair.g
        dp = len(self.p_basis)
        self.p_dim = dp
        # K^H-weight of each p-basis vector (weight vectors by construction)
        p_weights = []
        for v in self.p_basis:
            j = next(k for k, a in enumerate(v) if not a.is_zero())
            p_weights.append(self.pair.ad_grading[j])
        # kept basis: (subset, module index) of trivial total weight
        self.kept: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
        full_index: Dict[int, Dict[Tuple[Tuple[int, ...], int], int]] = {}
        for n in range(dp + 1):
            kept = []
            index = {}
            for subset in combinations(range(dp), n):
                w = zero
                for s in subset:
                    w = K.add(w, p_weights[s])
                for k in range(M.dim):
                    if K.add(w, M.k_weights[k]) == zero:
                        index[(subset, k)] = len(kept)
                        kept.append((subset, k))
            self.kept[n] = kept
            full_index[n] = index
        self.boundaries: Dict[int, Matrix] = {}
        for n in range(1, dp + 1):
            self.boundaries[n] = self._boundary(n, full_index)

    def dim(self, n: int) -> int:
        return len(self.kept.get(n, ()))

    def boundary(self, n: int) -> Matrix:
        b = self.boundaries.get(n)
        if b is not None:
            return b
        return Matrix.zeros(self.dim(n - 1), self.dim(n))

    def _act(self, j: int, k: int) -> Dict[int, Scalar]:
        """Column k of the action of the j-th p-basis vector on M."""
        out: Dict[int, Scalar] = {}
        for l, a in enumerate(self.p_basis[j]):
            if a.is_zero():
                continue
            col = self.module.g_action[l].column(k)
            for r, v in enumerate(col):
                if not v.is_zero():
                    add_into(out, r, a * v)
        return out

    def _boundary(self, n: int, full_index) -> Matrix:
        rows_idx = full_index[n - 1]
        ents: Dict = {}
        g = self.pair.g
        for col, (subset, k) in enumerate(self.kept[n]):
            for i, si in enumerate(subset):
                sgn = Scalar(signs.rel_action_sign(i))
                rest = subset[:i] + subset[i + 1:]
                for r, v in self._act(si, k).items():
                    row = rows_idx.get((rest, r))
                    if row is None:
                        raise AssertionError("boundary leaves the coinvariant part")
                    add_into(ents, (row, col), sgn * v)
            for p in range(n):
                for q in range(p + 1, n):
                    sgn0 = Scalar(signs.wedge_pair_sign(p, q))
                    rest = tuple(x for t, x in enumerate(subset) if t not in (p, q))
                    br = g.bracket(self.p_basis[subset[p]], self.p_basis[subset[q]])
                    proj = self.projection.apply(br)
                    for l, cl in enumerate(proj):
                        if cl.is_zero() or l in rest:
                            continue
                        pos = sum(1 for s in rest if s < l)
                        wedge = rest[:pos] + (l,) + rest[pos:]
                        isgn = Scalar(signs.wedge_out_sign(pos))
                        row = rows_idx.get((wedge, k))
                        if row is None:
                            raise AssertionError("boundary leaves the coinvariant part")
                        add_into(ents, (row, col), sgn0 * isgn * cl)
        return Matrix._raw(self.dim(n - 1), len(self.kept[n]), ents)

    def validate(self) -> ValidationReport:
        bad = []
        for n in range(2, self.p_dim + 1):
            if not (self.boundary(n - 1) @ self.boundary(n)).is_zero():
                bad.append(f"boundary squared nonzero at degree {n}")
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)

    def as_cochain(self) -> Complex:
        """The same data as a cochain complex of plain spaces at degrees -n."""
        terms = {-n: plain_space(self.dim(n)) for n in range(self.p_dim + 1)
                 if self.dim(n)}
        diffs = {}
        for n in range(1, self.p_dim + 1):
            b = self.boundary(n)
            if not b.is_zero():
                diffs[-n] = b
        return Complex(trivial_pair(), terms, diffs)


def _checked_complex(emb: SubpairEmbedding, M: FiniteModule) -> RelativeStandardComplex:
    cx = RelativeStandardComplex(emb, M)
    rep = cx.validate()
    if not rep:
        raise NotAComplexError("; ".join(rep.violations))
    return cx


def rel_homology(emb: SubpairEmbedding, M: FiniteModule) -> HomologyReport:
    cx = _checked_complex(emb, M)
    report = HomologyReport()
    for n in range(cx.p_dim + 1):
        reps = homology_at(cx.boundary(n), cx.boundary(n + 1))
        report.dims[n] = len(reps)
        report.representatives[n] = reps
    return report


def coinvariants(M: FiniteModule, h_basis: Sequence[Vector],
                 KH: Optional[DiagGroup] = None) -> HomologyReport:
    """M / (h M + non-trivial K^H-isotypic parts), as a degree-0 report."""
    K = KH if KH is not None else M.pair.K
    zero = K.zero_char()
    kept = [k for k in range(M.dim) if M.k_weights[k] == zero]
    index = {k: i for i, k in enumerate(kept)}
    images = []
    for eta in h_basis:
        act = None
        for l, a in enumerate(eta):
            if a.is_zero():
                continue
            m = M.g_action[l].scale(a)
            act = m if act is None else act + m
        if act is None:
            continue
        for k in range(M.dim):
            col = act.column(k)
            v = [ZERO] * len(kept)
            for r, x in enumerate(col):
                if not x.is_zero() and r in index:
                    v[index[r]] = x
            images.append(tuple(v))
    reps = independent_over(len(kept), images,
                            [unit_vec(len(kept), i) for i in range(len(kept))])
    report = HomologyReport()
    report.dims[0] = len(reps)
    report.representatives[0] = reps
    return report


def ext_via_duality(emb: SubpairEmbedding, M: FiniteModule, n: int) -> int:
    """dim Ext^n(M, C) as dim H_n of the relative standard complex.

    Only degree n is computed: dim C_n - rank d_n - rank d_{n+1}.
    """
    cx = _checked_complex(emb, M)
    return cx.dim(n) - rank(cx.boundary(n)) - rank(cx.boundary(n + 1))


def ext_via_chain_maps(emb: SubpairEmbedding, M: FiniteModule, n: int) -> int:
    """Independent route: maps to C[n] from the complex, modulo homotopy."""
    cx = RelativeStandardComplex(emb, M).as_cochain()
    return homotopy_classes_dim(cx, single_term(plain_space(1)), n)


def euler_poincare(emb: SubpairEmbedding, M: FiniteModule) -> int:
    cx = RelativeStandardComplex(emb, M)
    return sum((-1) ** n * cx.dim(n) for n in range(cx.p_dim + 1))
