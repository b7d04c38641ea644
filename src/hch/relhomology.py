"""Relative Lie algebra homology, coinvariants, and the two Ext routes.

Everything happens over the small pair (h, K^H) of a subpair embedding.
The complement p of the embedded torus algebra inside h is ``Pair.complement``:
g-basis vectors chosen once per pair, with h's structure constants projected
to p.  The Chevalley–Eilenberg boundary (``complexes.ce_boundary``) reads
them and M's g-basis action matrices.

The relative standard complex is a ``complexes.Complex`` of plain spaces with
C_n at cochain degree -n, so H_n is ``Complex.homology`` at degree -n and the
Euler–Poincaré characteristic is ``Complex.euler_characteristic``.  It depends
on M alone, so it is built once per module and held by it (``held_complex``):
every degree, both Ext routes, EP and ``rel_homology`` read that one build.

Both Ext routes read one rank formula, ``Complex.homology_dim``: the duality
route on the complex itself at degree -n, the chain-map route on its dual
Hom(C, k), held by the complex as ``dual``.  They and ``rel_homology`` raise
through the complex's one d^2 verdict (``Complex.check_complex``), which names
each failing d_(n-1) d_n as ``d^2 != 0 at degree -n``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from . import signs
from .complexes import (
    Complex,
    ce_boundary,
    hom_complex,
    plain_space,
    single_term,
    trivial_pair,
)
from .gkmodules import FiniteModule
from .liepairs import Character, SubpairEmbedding
from .linalg import Matrix, SparseVector, dense, independent_over, sparse_columns
from .reports import HomologyReport
from .scalars import ONE


class RelativeStandardComplex(Complex):
    """C_n = K^H-coinvariants of wedge^n(p) (x) M, with the two-sum boundary.

    C_n is a plain space at cochain degree -n, and the boundary C_n -> C_{n-1}
    is ``diff(-n)``.  The d^2 verdict (``check_complex``), the ranks
    (``rank_at``) and the dual are each computed once per complex.
    """

    def __init__(self, emb: SubpairEmbedding, M: FiniteModule):
        if M.pair.g.dim != emb.small.g.dim:
            raise ValueError("module must live over the small pair of the embedding")
        pair = M.pair
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
        # position[n][subset][k] is the index of (subset, k) in kept[n]; only kept
        # subsets have a position, so the boundary is worked out on them alone
        self.kept: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
        position: Dict[int, Dict[Tuple[int, ...], Dict[int, int]]] = {}
        for n in range(dp + 1):
            kept = self.kept[n] = []
            position[n] = {}
            for subset in combinations(range(dp), n):
                w = zero
                for s in subset:
                    w = K.add(w, p_weights[s])
                ks = by_weight.get(K.neg(w))
                if ks:
                    position[n][subset] = {k: len(kept) + i for i, k in enumerate(ks)}
                    kept.extend((subset, k) for k in ks)
        act = [sparse_columns(M.g_action[j]) for j in chosen]
        diffs = {}
        nowhere: Dict[int, int] = {}
        for n in range(1, dp + 1):
            try:
                diffs[-n] = ce_boundary(position[n].items(), len(self.kept[n - 1]),
                                        lambda s, below=position[n - 1]: below.get(s, nowhere),
                                        act, signs.rel_action_sign, brackets)
            except KeyError:
                raise ValueError("boundary leaves the coinvariant part") from None
        terms = {-n: plain_space(len(self.kept[n])) for n in range(dp + 1)}
        super().__init__(trivial_pair(), terms, diffs)

    @cached_property
    def dual(self) -> Complex:
        """Hom(C, k): its H^n is the degree-n maps to k modulo homotopy (chain-map route)."""
        return hom_complex(self, single_term(plain_space(1)))


def held_complex(emb: SubpairEmbedding, M: FiniteModule) -> RelativeStandardComplex:
    """M's relative standard complex, built on first use and held as ``M.relative_complex``.

    ``emb`` only checks the dimension, on every call: a mismatched one reaches
    the constructor, which raises.  A module is treated as immutable once a
    homology call has read it, as ``Pair.complement`` treats its pair; the
    complex lives exactly as long as M.
    """
    cx = getattr(M, "relative_complex", None)
    if cx is None or M.pair.g.dim != emb.small.g.dim:
        cx = M.relative_complex = RelativeStandardComplex(emb, M)
    return cx


def rel_homology(emb: SubpairEmbedding, M: FiniteModule) -> HomologyReport:
    """H_n for n = 0..p_dim, read from the complex's homology at degree -n."""
    cx = held_complex(emb, M)
    h = cx.homology()
    report = HomologyReport()
    for n in range(cx.p_dim + 1):
        report.dims[n] = h.dims.get(-n, 0)
        report.representatives[n] = h.representatives.get(-n, [])
    return report


def coinvariants(M: FiniteModule, h_basis: Sequence[SparseVector]) -> HomologyReport:
    """M / (h M + non-trivial K^H-isotypic parts), as a degree-0 report."""
    zero = M.pair.K.zero_char()
    kept = [k for k in range(M.dim) if M.k_weights[k] == zero]
    index = {k: i for i, k in enumerate(kept)}
    # the columns of every eta in h_basis acting on M, read on the kept rows
    columns = {}
    for e, eta in enumerate(h_basis):
        for c, col in M.action_matrix(eta).columns.items():
            col = {index[r]: v for r, v in col.items() if r in index}
            if col:
                columns[e * M.dim + c] = col
    images = Matrix._raw(len(kept), len(h_basis) * M.dim, columns)
    reps = independent_over(images, [{i: ONE} for i in range(len(kept))])
    report = HomologyReport()
    report.dims[0] = len(reps)
    report.representatives[0] = [dense(v, len(kept)) for v in reps]
    return report


def ext_via_duality(emb: SubpairEmbedding, M: FiniteModule, n: int) -> int:
    """dim Ext^n(M, C) as dim H_n of the relative standard complex.

    Only degree n is computed: dim C_n - rank d_n - rank d_{n+1}.
    """
    cx = held_complex(emb, M)
    cx.require_complex()
    return cx.homology_dim(-n)


def ext_via_chain_maps(emb: SubpairEmbedding, M: FiniteModule, n: int) -> int:
    """Independent route: maps to C[n] from the complex, modulo homotopy."""
    cx = held_complex(emb, M)
    cx.require_complex()
    return cx.dual.homology_dim(n)


def euler_poincare(emb: SubpairEmbedding, M: FiniteModule) -> int:
    return held_complex(emb, M).euler_characteristic()
