"""The standard resolution U(g) (x) wedge(g), truncated by PBW degree.

Terms sit in cochain degrees -n (wedge degree n); the differential raises
the cochain degree, the contractions i_xi lower it by wedging a torus
generator on the left.  Only columns whose PBW degree stays two below the
cutoff are marked interior: identities are exact there and meaningless
beyond.

Left multiplication by x_j leaves the wedge factor alone, so g acts on every
term as I (x) L_j, with L_j the truncated left-multiplication matrix on the
PBW monomials.  An instance straightens each L_j once, builds its h-complex
once, and ``check_exactness`` reuses that build.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from . import signs
from .complexes import Complex
from .gkmodules import FiniteModule
from .hcomplexes import HComplex
from .liepairs import Character, Pair, ValidationReport
from .linalg import Matrix, add_into, column_space, kernel_basis
from .pbw import PBW, Element, Mono, degree
from .scalars import ONE, ZERO, Scalar, as_scalar

# a sparse column as (row, coefficient) pairs
Column = List[Tuple[int, Scalar]]


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
        # a subset's length is its wedge degree, so one map serves every n
        self._slot = {sub: s for subs in self.subsets.values() for s, sub in enumerate(subs)}
        self._h: Optional[HComplex] = None

    # -- basis bookkeeping: index = subset_slot * len(monos) + mono_slot --------

    def dim_at_wedge(self, n: int) -> int:
        return len(self.subsets.get(n, ())) * len(self.monos)

    def _truncated(self, e: Element) -> Column:
        """(monomial slot, coefficient) of e, without the monomials above the cutoff."""
        return [(self._mono_index[m], c) for m, c in e.items() if degree(m) <= self.cutoff]

    @cached_property
    def _left(self) -> List[List[Column]]:
        """L_j by columns: ``_left[j][mi]`` is x_j * monos[mi], truncated."""
        return [[self._truncated(self.u.gen_times(j, {mono: ONE})) for mono in self.monos]
                for j in range(self.pair.g.dim)]

    @cached_property
    def _right(self) -> List[List[Column]]:
        """Right multiplication by columns: ``_right[j][mi]`` is monos[mi] * x_j, truncated."""
        return [[self._truncated(self.u.mono_times_gen(mono, j)) for mono in self.monos]
                for j in range(self.pair.g.dim)]

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
        weights = [self._weight(subset, mono)
                   for subset in self.subsets[n] for mono in self.monos]
        dim, nm = len(weights), len(self.monos)
        actions = []
        for table in self._left:
            ents = {}
            for off in range(0, dim, nm):
                for mi, column in enumerate(table):
                    for r, c in column:
                        ents[(off + r, off + mi)] = c
            actions.append(Matrix._raw(dim, dim, ents))
        return FiniteModule(self.pair, weights, actions)

    def _place_wedge_terms(self, ents: Dict, col_off: int, terms: Column) -> None:
        """Add c times the identity on monomials, from the wedge block at column
        offset col_off to the block at row offset r, for each (r, c) in terms."""
        for mi in range(len(self.monos)):
            for row_off, c in terms:
                add_into(ents, (row_off + mi, col_off + mi), c)

    def _diff(self, n: int) -> Matrix:
        """Boundary wedge^n -> wedge^{n-1} (cochain map at degree -n)."""
        rows, cols = self.dim_at_wedge(n - 1), self.dim_at_wedge(n)
        nm = len(self.monos)
        ents: Dict = {}
        g = self.pair.g
        for subset in self.subsets[n]:
            off = self._slot[subset] * nm
            # u (x) x_s ^ rest -> +- u x_s (x) rest
            for i, si in enumerate(subset):
                sgn = signs.wedge_out_sign(i)
                row_off = self._slot[subset[:i] + subset[i + 1:]] * nm
                for mi, column in enumerate(self._right[si]):
                    for r, c in column:
                        add_into(ents, (row_off + r, off + mi), c if sgn == 1 else -c)
            # u (x) x_p ^ x_q ^ rest -> +- u (x) [x_p, x_q] ^ rest
            terms = []
            for p in range(n):
                for q in range(p + 1, n):
                    sgn0 = as_scalar(signs.wedge_pair_sign(p, q))
                    rest = subset[:p] + subset[p + 1:q] + subset[q + 1:]
                    for l, cl in enumerate(g.bracket_basis(subset[p], subset[q])):
                        if cl.is_zero():
                            continue
                        ins = _wedge_insert(l, rest)
                        if ins is None:
                            continue
                        isgn, wedge = ins
                        terms.append((self._slot[wedge] * nm, sgn0 * as_scalar(isgn) * cl))
            self._place_wedge_terms(ents, off, terms)
        return Matrix._raw(rows, cols, ents)

    def _i_map(self, t: int, n: int) -> Matrix:
        """i_xi at cochain degree -n: wedge^n -> wedge^{n+1}, u (x) l -> -u (x) xi ^ l."""
        rows, cols = self.dim_at_wedge(n + 1), self.dim_at_wedge(n)
        nm = len(self.monos)
        ents: Dict = {}
        iota = self.pair.iota
        for subset in self.subsets[n]:
            terms = []
            for j in range(self.pair.g.dim):
                v = iota[(j, t)]
                if v.is_zero():
                    continue
                ins = _wedge_insert(j, subset)
                if ins is None:
                    continue
                isgn, wedge = ins
                terms.append((self._slot[wedge] * nm, -as_scalar(isgn) * v))
            self._place_wedge_terms(ents, self._slot[subset] * nm, terms)
        return Matrix._raw(rows, cols, ents)

    def _interior_cols(self, n: int) -> List[int]:
        nm = len(self.monos)
        good = [i for i, m in enumerate(self.monos) if degree(m) <= self.cutoff - 2]
        out = []
        for s in range(len(self.subsets[n])):
            out.extend(s * nm + i for i in good)
        return out

    def hcomplex(self) -> HComplex:
        """The truncated h-complex, built on the first call and returned after."""
        if self._h is None:
            self._h = self._build()
        return self._h

    def _build(self) -> HComplex:
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
        base = self.hcomplex().base
        bad = []
        for n in range(-self.pair.g.dim, 1):
            out = base.diff(n) if n < 0 else self.augmentation()
            interior = base.interior_cols(n)
            image = column_space(base.diff(n - 1))
            for w in kernel_basis(out.restrict_columns(interior)):
                v = [ZERO] * base.dim_at(n)
                for c, x in zip(interior, w):
                    v[c] = x
                if not image.contains(tuple(v)):
                    bad.append(f"interior cycle not a boundary at degree {n}")
                    break
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)
