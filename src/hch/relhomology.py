"""Relative Lie algebra homology, coinvariants, and the two Ext routes.

Everything happens over the small pair (h, K^H) of a subpair embedding.
The complement p of the embedded torus algebra inside h is ``Pair.complement``:
g-basis vectors chosen once per pair, with h's structure constants projected
to p.  The Chevalley–Eilenberg boundary (``complexes.ce_boundary``) reads
them and M's g-basis action matrices.

The relative standard complex is a ``complexes.Complex`` of plain spaces with
C_n at cochain degree -n, so H_n is ``Complex.homology`` at degree -n and the
Euler–Poincaré characteristic is ``Complex.euler_characteristic``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from . import signs
from .complexes import (
    Complex,
    NotAComplexError,
    ce_boundary,
    homotopy_classes_dim,
    plain_space,
    single_term,
    trivial_pair,
)
from .gkmodules import FiniteModule
from .liepairs import Character, Pair, SubpairEmbedding
from .linalg import Matrix, Vector, dense, independent_over, rank, sparse_columns, unit_vec
from .reports import HomologyReport
from .scalars import ONE


def p_complement(pair: Pair) -> Tuple[List[Vector], Matrix]:
    """Basis of p (g-basis vectors) and the projection P: h -> p (coordinates
    in that basis), read from ``pair.complement``."""
    chosen, projection, _ = pair.complement
    return [unit_vec(pair.g.dim, j) for j in chosen], projection


class RelativeStandardComplex(Complex):
    """C_n = K^H-coinvariants of wedge^n(p) (x) M, with the two-sum boundary.

    C_n is a plain space at cochain degree -n, and the boundary C_n -> C_{n-1}
    is ``diff(-n)``.
    """

    def __init__(self, emb: SubpairEmbedding, M: FiniteModule):
        if M.pair.g.dim != emb.small.g.dim:
            raise ValueError("module must live over the small pair of the embedding")
        pair = M.pair
        self.module = M
        chosen, _, brackets = pair.complement
        K = pair.K
        zero = K.zero_char()
        dp = self.p_dim = len(chosen)
        p_weights = [pair.ad_grading[j] for j in chosen]
        # module indices by canonical K-weight (K.add reduces finite residues), ascending
        by_weight: Dict[Character, List[int]] = {}
        for k, ch in enumerate(M.k_weights):
            by_weight.setdefault(K.add(zero, ch), []).append(k)
        # kept basis: (subset, module index) of trivial total weight;
        # position[n][subset][k] is the index of (subset, k) in kept[n]
        self.kept: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
        position: Dict[int, Dict[Tuple[int, ...], Dict[int, int]]] = {}
        for n in range(dp + 1):
            kept = self.kept[n] = []
            position[n] = {}
            for subset in combinations(range(dp), n):
                w = zero
                for s in subset:
                    w = K.add(w, p_weights[s])
                ks = by_weight.get(K.neg(w), ())
                position[n][subset] = {k: len(kept) + i for i, k in enumerate(ks)}
                kept.extend((subset, k) for k in ks)
        act = [sparse_columns(M.g_action[j]) for j in chosen]
        diffs = {}
        for n in range(1, dp + 1):
            try:
                diffs[-n] = ce_boundary(position[n].items(), len(self.kept[n - 1]),
                                        position[n - 1].__getitem__, act,
                                        signs.rel_action_sign, brackets)
            except KeyError:
                raise ValueError("boundary leaves the coinvariant part") from None
        terms = {-n: plain_space(len(self.kept[n])) for n in range(dp + 1)}
        super().__init__(trivial_pair(), terms, diffs)


def _check_boundaries(cx: RelativeStandardComplex) -> None:
    """Raise NotAComplexError naming, in ascending order, each n with d_(n-1) d_n != 0."""
    bad = [f"boundary squared nonzero at degree {n}" for n in range(2, cx.p_dim + 1)
           if not (cx.diff(1 - n) @ cx.diff(-n)).is_zero()]
    if bad:
        raise NotAComplexError("; ".join(bad))


def rel_homology(emb: SubpairEmbedding, M: FiniteModule) -> HomologyReport:
    """H_n for n = 0..p_dim, read from the complex's homology at degree -n.

    ``Complex.homology`` forms each d_(n-1) d_n once, as its guard and its
    rank certificate; only when that guard raises are they formed again, to
    name every failing degree.
    """
    cx = RelativeStandardComplex(emb, M)
    try:
        h = cx.homology()
    except NotAComplexError:
        _check_boundaries(cx)
        raise
    report = HomologyReport()
    for n in range(cx.p_dim + 1):
        report.dims[n] = h.dims.get(-n, 0)
        report.representatives[n] = h.representatives.get(-n, [])
    return report


def coinvariants(M: FiniteModule, h_basis: Sequence[Vector]) -> HomologyReport:
    """M / (h M + non-trivial K^H-isotypic parts), as a degree-0 report."""
    zero = M.pair.K.zero_char()
    kept = [k for k in range(M.dim) if M.k_weights[k] == zero]
    index = {k: i for i, k in enumerate(kept)}
    # the columns of every eta in h_basis acting on M, read on the kept rows
    ents = {}
    for e, eta in enumerate(h_basis):
        for (r, c), v in M.action_matrix(eta).entries.items():
            if r in index:
                ents[(index[r], e * M.dim + c)] = v
    images = Matrix._raw(len(kept), len(h_basis) * M.dim, ents)
    reps = independent_over(images, [{i: ONE} for i in range(len(kept))])
    report = HomologyReport()
    report.dims[0] = len(reps)
    report.representatives[0] = [dense(v, len(kept)) for v in reps]
    return report


def ext_via_duality(emb: SubpairEmbedding, M: FiniteModule, n: int) -> int:
    """dim Ext^n(M, C) as dim H_n of the relative standard complex.

    Only degree n is computed: dim C_n - rank d_n - rank d_{n+1}.
    """
    cx = RelativeStandardComplex(emb, M)
    _check_boundaries(cx)
    return cx.dim_at(-n) - rank(cx.diff(-n)) - rank(cx.diff(-n - 1))


def ext_via_chain_maps(emb: SubpairEmbedding, M: FiniteModule, n: int) -> int:
    """Independent route: maps to C[n] from the complex, modulo homotopy."""
    return homotopy_classes_dim(RelativeStandardComplex(emb, M), single_term(plain_space(1)), n)


def euler_poincare(emb: SubpairEmbedding, M: FiniteModule) -> int:
    return RelativeStandardComplex(emb, M).euler_characteristic()
