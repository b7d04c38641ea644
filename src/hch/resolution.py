"""The standard resolution U(g) (x) wedge(g), truncated by PBW degree.

Terms sit in cochain degrees -n (wedge degree n); the differential raises
the cochain degree, the contractions i_xi lower it by wedging a torus
generator on the left.  Only columns whose PBW degree stays two below the
cutoff are marked interior: identities are exact there and meaningless
beyond.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Tuple

from . import signs
from .complexes import Complex
from .gkmodules import FiniteModule
from .hcomplexes import HComplex
from .liepairs import Character, Pair, ValidationReport
from .linalg import Matrix, add_into, independent_over, kernel_basis
from .pbw import PBW, Mono, degree
from .scalars import ONE, as_scalar


def _wedge_insert(idx: int, subset: Tuple[int, ...]):
    """Sort idx into an increasing tuple; None if already present."""
    if idx in subset:
        return None
    pos = sum(1 for s in subset if s < idx)
    return signs.wedge_out_sign(pos), subset[:pos] + (idx,) + subset[pos:]


class StandardResolution:
    """Truncation of the standard complex of (g, K) at a PBW cutoff."""

    def __init__(self, pair: Pair, cutoff: int):
        if cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        self.pair = pair
        self.cutoff = cutoff
        g = pair.g
        self.u = PBW(g)
        self.monos: List[Mono] = self.u.monomials_up_to(cutoff)
        self._mono_index = {m: i for i, m in enumerate(self.monos)}
        self.subsets: Dict[int, List[Tuple[int, ...]]] = {
            n: list(combinations(range(g.dim), n)) for n in range(g.dim + 1)
        }

    # -- basis bookkeeping: index = subset_slot * len(monos) + mono_slot --------

    def dim_at_wedge(self, n: int) -> int:
        return len(self.subsets.get(n, ())) * len(self.monos)

    def _index(self, n: int, subset: Tuple[int, ...], mono: Mono) -> int:
        s = self.subsets[n].index(subset)
        return s * len(self.monos) + self._mono_index[mono]

    def _weight(self, subset: Tuple[int, ...], mono: Mono) -> Character:
        K = self.pair.K
        grading = self.pair.ad_grading
        torus = [0] * K.torus_rank
        finite = [0] * len(K.finite_invariants)
        parts = list(subset) + [j for j in range(self.pair.g.dim)
                                for _ in range(mono[j])]
        for j in parts:
            w = grading[j]
            for t in range(K.torus_rank):
                torus[t] += w.torus[t]
            for t, inv in enumerate(K.finite_invariants):
                finite[t] = (finite[t] + w.finite[t]) % inv
        return Character(tuple(torus), tuple(finite))

    def _term(self, n: int) -> FiniteModule:
        weights = []
        for subset in self.subsets[n]:
            for mono in self.monos:
                weights.append(self._weight(subset, mono))
        actions = []
        nm = len(self.monos)
        for j in range(self.pair.g.dim):
            ents = {}
            for s, subset in enumerate(self.subsets[n]):
                for mi, mono in enumerate(self.monos):
                    col = s * nm + mi
                    for m2, c in self.u.gen_times(j, {mono: ONE}).items():
                        if degree(m2) > self.cutoff:
                            continue
                        ents[(s * nm + self._mono_index[m2], col)] = c
            actions.append(Matrix(len(weights), len(weights), ents))
        return FiniteModule(self.pair, weights, actions)

    def _diff(self, n: int) -> Matrix:
        """Boundary wedge^n -> wedge^{n-1} (cochain map at degree -n)."""
        rows, cols = self.dim_at_wedge(n - 1), self.dim_at_wedge(n)
        ents: Dict = {}
        g = self.pair.g
        for subset in self.subsets[n]:
            for mono in self.monos:
                col = self._index(n, subset, mono)
                for i, si in enumerate(subset):
                    sgn = as_scalar(signs.wedge_out_sign(i))
                    rest = subset[:i] + subset[i + 1:]
                    for m2, c in self.u.mono_times_gen(mono, si).items():
                        if degree(m2) > self.cutoff:
                            continue
                        add_into(ents, (self._index(n - 1, rest, m2), col), sgn * c)
                for p in range(n):
                    for q in range(p + 1, n):
                        sgn0 = as_scalar(signs.wedge_pair_sign(p, q))
                        rest = tuple(x for k, x in enumerate(subset)
                                     if k not in (p, q))
                        for l, cl in enumerate(g.bracket_basis(subset[p], subset[q])):
                            if cl.is_zero():
                                continue
                            ins = _wedge_insert(l, rest)
                            if ins is None:
                                continue
                            isgn, wedge = ins
                            add_into(ents, (self._index(n - 1, wedge, mono), col),
                                     sgn0 * as_scalar(isgn) * cl)
        return Matrix(rows, cols, ents)

    def _i_map(self, t: int, n: int) -> Matrix:
        """i_xi at cochain degree -n: wedge^n -> wedge^{n+1}, u (x) l -> -u (x) xi ^ l."""
        rows, cols = self.dim_at_wedge(n + 1), self.dim_at_wedge(n)
        ents: Dict = {}
        iota = self.pair.iota
        for subset in self.subsets[n]:
            for mono in self.monos:
                col = self._index(n, subset, mono)
                for j in range(self.pair.g.dim):
                    v = iota[(j, t)]
                    if v.is_zero():
                        continue
                    ins = _wedge_insert(j, subset)
                    if ins is None:
                        continue
                    isgn, wedge = ins
                    add_into(ents, (self._index(n + 1, wedge, mono), col),
                             -as_scalar(isgn) * v)
        return Matrix(rows, cols, ents)

    def _interior_cols(self, n: int) -> List[int]:
        nm = len(self.monos)
        good = [i for i, m in enumerate(self.monos) if degree(m) <= self.cutoff - 2]
        out = []
        for s in range(len(self.subsets[n])):
            out.extend(s * nm + i for i in good)
        return out

    def hcomplex(self) -> HComplex:
        d = self.pair.g.dim
        terms = {-n: self._term(n) for n in range(d + 1)}
        diffs = {}
        for n in range(1, d + 1):
            m = self._diff(n)
            if not m.is_zero():
                diffs[-n] = m
        interior = {-n: self._interior_cols(n) for n in range(d + 1)}
        base = Complex(self.pair, terms, diffs, interior)
        i_maps = {t: {-n: self._i_map(t, n) for n in range(d)}
                  for t in range(self.pair.K.torus_rank)}
        return HComplex(base, i_maps)

    def augmentation(self) -> Matrix:
        """Counit onto the trivial module: coefficient of 1 (x) (empty wedge)."""
        unit = self._mono_index[(0,) * self.pair.g.dim]
        return Matrix(1, self.dim_at_wedge(0), {(0, unit): ONE})

    def check_exactness(self) -> ValidationReport:
        """Interior-supported cycles are boundaries (including the counit level)."""
        h = self.hcomplex()
        base = h.base
        bad = []
        d = self.pair.g.dim
        for n in range(-d, 1):
            out = base.diff(n) if n < 0 else self.augmentation()
            interior = set(base.interior_cols(n))
            ext_rows = [{c: ONE} for c in range(base.dim_at(n)) if c not in interior]
            ents = dict(out.entries)
            roff = out.rows
            for row in ext_rows:
                for c, v in row.items():
                    ents[(roff, c)] = v
                roff += 1
            stacked = Matrix(roff, base.dim_at(n), ents)
            cycles = kernel_basis(stacked)
            prev = base.diff(n - 1)
            boundaries = [prev.column(c) for c in range(prev.cols)]
            if independent_over(base.dim_at(n), boundaries, cycles):
                bad.append(f"interior cycle not a boundary at degree {n}")
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)
