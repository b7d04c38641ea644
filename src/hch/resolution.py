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

The boundary is the Chevalley–Eilenberg one, built by
``complexes.ce_boundary`` with right multiplication by x_s as the action and
g's structure constants as the brackets.

Exactness is the homology of the resolution augmented by its counit, read by
``Complex.homology``: a rank count certifies a degree, and elimination
decides the rest.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

from . import signs
from .complexes import Complex, ce_boundary, wedge_insert
from .gkmodules import FiniteModule, trivial_module
from .hcomplexes import HComplex
from .liepairs import Character, Pair, ValidationReport
from .linalg import Matrix, SparseVector
from .pbw import PBW, Element, Mono, degree
from .scalars import ONE


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
        # _blocks[subset][mi] is the index of subset (x) monos[mi]; a subset's
        # length is its wedge degree, so one map serves every n
        nm = len(self.monos)
        self._blocks = {sub: list(range(s * nm, (s + 1) * nm))
                        for subs in self.subsets.values() for s, sub in enumerate(subs)}
        # wedge-subset weight -> its row of term weights, shared by every degree
        self._weight_rows: Dict[Character, List[Character]] = {}
        self._h: Optional[HComplex] = None

    # -- basis bookkeeping: index = subset_slot * len(monos) + mono_slot --------

    def dim_at_wedge(self, n: int) -> int:
        return len(self.subsets.get(n, ())) * len(self.monos)

    def _truncated(self, e: Element) -> SparseVector:
        """e as {monomial slot: coefficient}, without the monomials above the cutoff."""
        return {self._mono_index[m]: c for m, c in e.items() if degree(m) <= self.cutoff}

    @cached_property
    def _left(self) -> List[List[SparseVector]]:
        """L_j by columns: ``_left[j][mi]`` is x_j * monos[mi], truncated.

        A monomial m other than 1 is m' x_k in PBW order, with k its last
        nonzero exponent, so x_j m = (x_j m') x_k: one ``times_gen`` on the
        product already built for m', which precedes m in degree order.
        Straightening keeps x_j m' within degree deg m <= cutoff, so that
        product is exact before it is truncated.
        """
        dim = self.pair.g.dim
        unit, rest = self.monos[0], self.monos[1:]
        tables = []
        for j in range(dim):
            products: Dict[Mono, Element] = {unit: self.u.gen(j)}
            for m in rest:
                k = max(i for i in range(dim) if m[i])
                prev = list(m)
                prev[k] -= 1
                products[m] = self.u.times_gen(products[tuple(prev)], k)
            tables.append([self._truncated(products[m]) for m in self.monos])
        return tables

    @cached_property
    def _right(self) -> List[List[SparseVector]]:
        """Right multiplication by columns: ``_right[j][mi]`` is monos[mi] * x_j, truncated."""
        return [[self._truncated(self.u.mono_times_gen(mono, j)) for mono in self.monos]
                for j in range(self.pair.g.dim)]

    def _weight_of(self, parts: Iterable[int]) -> Character:
        """The K-weight of a product of the g-basis vectors ``parts``."""
        K, grading = self.pair.K, self.pair.ad_grading
        w = K.zero_char()
        for j in parts:
            w = K.add(w, grading[j])
        return w

    @cached_property
    def _mono_weights(self) -> List[Character]:
        """The K-weight of each PBW monomial, in ``monos`` order."""
        dim = self.pair.g.dim
        return [self._weight_of(j for j in range(dim) for _ in range(m[j])) for m in self.monos]

    def _weight_row(self, sw: Character) -> List[Character]:
        """sw plus the weight of each PBW monomial, summed once per distinct sw."""
        row = self._weight_rows.get(sw)
        if row is None:
            add = self.pair.K.add
            row = self._weight_rows[sw] = [add(sw, mw) for mw in self._mono_weights]
        return row

    def _term(self, n: int) -> FiniteModule:
        weights = [w for sw in map(self._weight_of, self.subsets[n]) for w in self._weight_row(sw)]
        dim, nm = len(weights), len(self.monos)
        actions = []
        for table in self._left:
            columns: Dict[int, SparseVector] = {}
            for off in range(0, dim, nm):
                for mi, column in enumerate(table):
                    if column:
                        columns[off + mi] = col = {}
                        for r, c in column.items():
                            col[off + r] = c
            actions.append(Matrix._raw(dim, dim, columns))
        return FiniteModule(self.pair, weights, actions)

    @cached_property
    def _brackets(self) -> Dict[Tuple[int, int], SparseVector]:
        """g's structure constants: ``_brackets[(a, b)]`` is [x_a, x_b] sparse, a < b."""
        g = self.pair.g
        return {(a, b): g.bracket_basis(a, b) for a, b in combinations(range(g.dim), 2)}

    def _diff(self, n: int) -> Matrix:
        """Boundary wedge^n -> wedge^{n-1} (cochain map at degree -n).

        u (x) x_s ^ rest -> +- u x_s (x) rest (right multiplication), and
        u (x) x_p ^ x_q ^ rest -> +- u (x) [x_p, x_q] ^ rest.
        """
        columns = [(subset, range(len(self.monos))) for subset in self.subsets[n]]
        return ce_boundary(columns, self.dim_at_wedge(n - 1), self._blocks.__getitem__,
                           self._right, signs.wedge_out_sign, self._brackets)

    def _i_map(self, t: int, n: int) -> Matrix:
        """i_xi at cochain degree -n: wedge^n -> wedge^{n+1}, u (x) l -> -u (x) xi ^ l."""
        columns: Dict[int, SparseVector] = {}
        iota = self.pair.iota_vec(t)
        for subset in self.subsets[n]:
            cols = self._blocks[subset]
            for j, v in iota.items():
                if j in subset:
                    continue
                sgn, wedge = wedge_insert(j, subset)
                v = v if sgn < 0 else -v
                for r, c in zip(self._blocks[wedge], cols):
                    columns.setdefault(c, {})[r] = v
        return Matrix._raw(self.dim_at_wedge(n + 1), self.dim_at_wedge(n), columns)

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
        return Matrix._raw(1, self.dim_at_wedge(0), {unit: {0: ONE}})

    def check_exactness(self) -> ValidationReport:
        """Interior-supported cycles are boundaries (including the counit level).

        That is, the resolution augmented by the counit onto the trivial
        module at degree 1 has no homology at the resolution's degrees.
        """
        base = self.hcomplex().base
        augmented = Complex(self.pair, {**base.terms, 1: trivial_module(self.pair)},
                            {**base.diffs, 0: self.augmentation()}, base.interior)
        dims = augmented.homology().dims
        bad = [f"interior cycle not a boundary at degree {n}"
               for n in range(-self.pair.g.dim, 1) if dims.get(n)]
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)
