"""Bounded cochain complexes of finite modules, with shift/cone/tensor/Hom.

Terms live over a common pair; plain vector spaces are modules over the
trivial pair.  A complex may carry "interior" column marks per degree: for
truncations of infinite objects, identities (d^2 = 0, axiom checks) are
asserted only on the marked columns, where the truncation is known closed,
and ``homology`` reads only the cycles supported there (modulo the image of
the whole boundary), so a truncated resolution has homology too.  An unmarked
complex counts every column as interior, so ``homology`` is one loop for both
kinds.  The relative standard complex of ``relhomology`` and the standard
resolution augmented by its counit are Complexes too.

``homology`` certifies a degree exact by counting ranks, with no rational
elimination.  Let B be the columns of d^(n-1) that lie on the interior
columns.  If d^n kills B (an exact product over Q(i)), then im B lies in the
interior cycles Z, so rank B <= dim Z = |interior| - rank(d^n on the
interior); ranks modulo a prime (``linalg.rank_mod_p``) are lower bounds, so
rank_P(B) + rank_P(d^n on the interior) >= |interior| forces im B = Z.  On an
unmarked complex B is every nonzero column of d^(n-1), so the same product is
the d^2 = 0 check.  A degree the count does not settle is decided by
elimination: the canonical interior cycles against the span of d^(n-1).

Every block of a tensor, Hom or cone matrix is placed by one signed
Kronecker placer, ``gkmodules.kron_into``, with identity factors given as
sizes.  The tensor differential d (x) 1 + sign 1 (x) d and the h-tensor
contraction i (x) 1 + sign 1 (x) i are one Leibniz loop,
``TensorLayout.leibniz``; the cone differential and the h-cone contraction
are both ``cone_matrix``.

The Chevalley–Eilenberg boundary of the standard resolution and of the
relative complex is written once, in ``ce_boundary``.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import signs
from .gkmodules import FiniteModule, direct_sum, kron_into, tensor_into
from .liepairs import DiagGroup, LieAlgebra, Pair, ValidationReport
from .linalg import (
    Matrix,
    SparseVector,
    add_into,
    dense,
    independent_over,
    kernel_on,
    rank,
    rank_mod_p,
    sparse_columns,
)
from .reports import HomologyReport
from .scalars import ONE

_TRIVIAL_PAIR: Optional[Pair] = None


def trivial_pair() -> Pair:
    global _TRIVIAL_PAIR
    if _TRIVIAL_PAIR is None:
        _TRIVIAL_PAIR = Pair(LieAlgebra(0, []), DiagGroup(), [], Matrix.zeros(0, 0))
    return _TRIVIAL_PAIR


def plain_space(dim: int) -> FiniteModule:
    P = trivial_pair()
    return FiniteModule(P, [P.K.zero_char()] * dim, [])


class NotAComplexError(ValueError):
    """A differential squared is nonzero, so there is no homology to take."""


class Complex:
    """Bounded cochain complex; d^n goes term n -> term n+1."""

    def __init__(self, pair: Pair, terms: Dict[int, FiniteModule],
                 diffs: Dict[int, Matrix],
                 interior: Optional[Dict[int, List[int]]] = None):
        self.pair = pair
        self.terms = {n: t for n, t in terms.items() if t.dim > 0}
        self.diffs = {}
        for n, d in diffs.items():
            if d.rows == 0 or d.cols == 0:
                continue
            if d.cols != self.dim_at(n) or d.rows != self.dim_at(n + 1):
                raise ValueError(f"differential shape mismatch at degree {n}")
            self.diffs[n] = d
        self.interior = dict(interior) if interior else None

    # -- access ---------------------------------------------------------------

    def degrees(self) -> List[int]:
        return sorted(self.terms)

    def dim_at(self, n: int) -> int:
        t = self.terms.get(n)
        return t.dim if t else 0

    def term(self, n: int) -> FiniteModule:
        t = self.terms.get(n)
        return t if t is not None else trivial_dim_zero(self.pair)

    def diff(self, n: int) -> Matrix:
        d = self.diffs.get(n)
        if d is not None:
            return d
        return Matrix.zeros(self.dim_at(n + 1), self.dim_at(n))

    def interior_cols(self, n: int) -> List[int]:
        if self.interior is None:
            return list(range(self.dim_at(n)))
        return self.interior.get(n, [])

    def euler_characteristic(self) -> int:
        return sum(signs.degree_sign(n) * t.dim for n, t in self.terms.items())

    # -- validation and homology ----------------------------------------------

    def check_complex(self) -> ValidationReport:
        bad = []
        for n in self.degrees():
            if self.interior is None:
                if not (self.diff(n + 1) @ self.diff(n)).is_zero():
                    bad.append(f"d^2 != 0 at degree {n}")
            else:
                dd = self.diff(n + 1) @ self.diff(n).restrict_columns(self.interior_cols(n))
                if not dd.is_zero():
                    bad.append(f"d^2 != 0 at degree {n} on an interior column")
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)

    def homology(self) -> HomologyReport:
        """Cycles modulo boundaries; on a marked complex, the interior cycles only.

        A degree with no interior columns, or one the rank count certifies,
        reads 0.  Elsewhere the cycles are the canonical kernel basis of d^n
        on the interior columns; each one that extends the span of the image
        of d^(n-1) and of the cycles before it is kept.  An unmarked complex
        whose boundaries are not cycles raises NotAComplexError.
        """
        report = HomologyReport()
        # the previous degree's columns: d^(n-1)'s, or all empty if it is not n - 1
        into: List[SparseVector] = []
        for n in self.degrees():
            d_out, cols = self.diff(n), self.interior_cols(n)
            out_cols = sparse_columns(d_out)
            reps = []
            if cols and not self._counted_exact(d_out, out_cols, cols, into):
                found = independent_over(self.diff(n - 1), kernel_on(d_out, cols))
                reps = [dense(v, self.dim_at(n)) for v in found]
            report.dims[n] = len(reps)
            report.representatives[n] = reps
            into = out_cols
        return report

    def _counted_exact(self, d_out: Matrix, out_cols: List[SparseVector], cols: Sequence[int],
                       into: List[SparseVector]) -> bool:
        """True when the rank count proves every cycle of d_out on ``cols`` a boundary.

        ``out_cols`` and ``into`` are the columns of d_out and d^(n-1); B is
        the nonzero columns of ``into`` supported on ``cols``.  False proves
        nothing; d_out @ B != 0 on an unmarked complex raises NotAComplexError.
        """
        inside = set(cols)
        bounded = [v for v in into if v and v.keys() <= inside]
        if not (d_out @ Matrix._from_sparse_columns(d_out.cols, bounded)).is_zero():
            if self.interior is None:
                raise NotAComplexError(
                    "not a complex: boundaries are not cycles (d_out @ d_in != 0)")
            return False
        r_in = rank_mod_p(bounded)
        r_out = rank_mod_p(out_cols[c] for c in cols)
        return r_in is not None and r_out is not None and r_in + r_out >= len(cols)

    # -- constructions ----------------------------------------------------------

    def shift(self, k: int) -> "Complex":
        sgn = signs.shift_diff_sign(k)
        terms = {n - k: t for n, t in self.terms.items()}
        diffs = {n - k: (d if sgn == 1 else -d) for n, d in self.diffs.items()}
        interior = {n - k: cols for n, cols in self.interior.items()} if self.interior else None
        return Complex(self.pair, terms, diffs, interior)


def wedge_insert(idx: int, subset: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """(sign, increasing tuple) of x_idx ^ (wedge of subset) sorted into place;
    idx must not be in subset."""
    pos = sum(1 for s in subset if s < idx)
    return signs.wedge_out_sign(pos), subset[:pos] + (idx,) + subset[pos:]


def ce_boundary(columns: Iterable[Tuple[Tuple[int, ...], Collection[int]]], rows: int,
                row_of: Callable[[Tuple[int, ...]], Mapping[int, int]],
                act: Sequence[Sequence[SparseVector]],
                action_sign: Callable[[int], int],
                brackets: Dict[Tuple[int, int], SparseVector]) -> Matrix:
    """The Chevalley–Eilenberg boundary wedge^n (x) V -> wedge^{n-1} (x) V.

    x_{s_0} ^ ... ^ x_{s_{n-1}} (x) v goes to
      sum_i action_sign(i) (the wedge without x_{s_i}) (x) act_{s_i}(v)
      + sum_{p<q} wedge_pair_sign(p, q) [x_{s_p}, x_{s_q}] ^ (the rest) (x) v,
    with [x_{s_p}, x_{s_q}] ^ (the rest) sorted by ``wedge_insert``.

    columns lists (subset, ks) in column order: the columns of the increasing
    wedge subset come next, one for each coefficient basis vector k in ks.
    row_of(subset)[k] is the row of (subset, k) in degree n - 1.
    act[s][k] is x_s acting on coefficient vector k, a {row: Scalar} map.
    brackets[(a, b)], for every a < b, is [x_a, x_b] in the wedge basis, a
    {basis index: Scalar} map.
    The action and bracket terms are worked out once per subset.
    """
    ents: Dict = {}
    col = 0
    for subset, ks in columns:
        n = len(subset)
        for i, s in enumerate(subset):
            negate = action_sign(i) < 0
            target = row_of(subset[:i] + subset[i + 1:])
            act_s = act[s]
            for c, k in enumerate(ks, col):
                for r, v in act_s[k].items():
                    add_into(ents, (target[r], c), -v if negate else v)
        terms = []
        for p in range(n):
            for q in range(p + 1, n):
                sgn = signs.wedge_pair_sign(p, q)
                rest = subset[:p] + subset[p + 1:q] + subset[q + 1:]
                for l, cl in brackets[(subset[p], subset[q])].items():
                    if l not in rest:
                        isgn, wedge = wedge_insert(l, rest)
                        terms.append((row_of(wedge), cl if sgn * isgn > 0 else -cl))
        for c, k in enumerate(ks, col):
            for target, v in terms:
                add_into(ents, (target[k], c), v)
        col += len(ks)
    return Matrix._raw(rows, col, ents)


def trivial_dim_zero(pair: Pair) -> FiniteModule:
    return FiniteModule(pair, [], [Matrix.zeros(0, 0) for _ in range(pair.g.dim)])


def single_term(module: FiniteModule, degree: int = 0) -> Complex:
    return Complex(module.pair, {degree: module}, {})


class ComplexMap:
    """Degreewise map between complexes; chain map when it commutes with d."""

    def __init__(self, source: Complex, target: Complex, maps: Dict[int, Matrix]):
        self.source = source
        self.target = target
        self.maps = {}
        for n, m in maps.items():
            if m.rows == 0 or m.cols == 0:
                continue
            if m.cols != source.dim_at(n) or m.rows != target.dim_at(n):
                raise ValueError(f"map shape mismatch at degree {n}")
            self.maps[n] = m

    def at(self, n: int) -> Matrix:
        m = self.maps.get(n)
        if m is not None:
            return m
        return Matrix.zeros(self.target.dim_at(n), self.source.dim_at(n))

    def validate(self) -> ValidationReport:
        bad = []
        for n in sorted(set(self.source.degrees()) | set(self.maps)):
            lhs = self.target.diff(n) @ self.at(n)
            rhs = self.at(n + 1) @ self.source.diff(n)
            if lhs != rhs:
                bad.append(f"map does not commute with d at degree {n}")
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)

    @staticmethod
    def identity(c: Complex) -> "ComplexMap":
        return ComplexMap(c, c, {n: Matrix.identity(c.dim_at(n)) for n in c.degrees()})

    @staticmethod
    def zero(source: Complex, target: Complex) -> "ComplexMap":
        return ComplexMap(source, target, {})


def cone_matrix(rows: int, cols: int, split_row: int, split_col: int,
                shifted: Optional[Matrix], shifted_sign: int,
                lower_left: Optional[Matrix], lower_right: Optional[Matrix]) -> Matrix:
    """The cone block matrix [[shifted_sign * shifted, 0], [lower_left, lower_right]].

    The M[1] summand takes the first split_row rows and split_col columns;
    a missing block is zero.  Both the cone differential and the h-cone
    contraction are placed through here.
    """
    ents: Dict = {}
    for block, roff, coff, negate in ((shifted, 0, 0, shifted_sign < 0),
                                      (lower_left, split_row, 0, False),
                                      (lower_right, split_row, split_col, False)):
        if block is not None:
            kron_into(ents, 1, block, roff, coff, negate)
    return Matrix._raw(rows, cols, ents)


def cone(f: ComplexMap) -> Tuple[Complex, ComplexMap, ComplexMap]:
    """Mapping cone with the natural maps N -> Cone(f) -> M[1].

    Cone^n = M^{n+1} (+) N^n, d(m, x) = (-d_M m, f m + d_N x).
    """
    rep = f.validate()
    if not rep:
        raise ValueError("cone of an invalid map: " + "; ".join(rep.violations))
    M, N = f.source, f.target
    degs = sorted({n - 1 for n in M.degrees()} | set(N.degrees()))
    terms = {}
    for n in degs:
        parts = [t for t in (M.terms.get(n + 1), N.terms.get(n)) if t is not None]
        if parts:
            terms[n] = parts[0] if len(parts) == 1 else direct_sum(*parts)
    sgn = signs.cone_shifted_part_sign()
    diffs = {}
    for n in degs:
        rows = M.dim_at(n + 2) + N.dim_at(n + 1)
        cols = M.dim_at(n + 1) + N.dim_at(n)
        if rows and cols:
            diffs[n] = cone_matrix(rows, cols, M.dim_at(n + 2), M.dim_at(n + 1),
                                   M.diffs.get(n + 1), sgn, f.maps.get(n + 1), N.diffs.get(n))
    interior = None
    if M.interior is not None or N.interior is not None:
        interior = {}
        for n in degs:
            cols = list(M.interior_cols(n + 1))
            cols += [M.dim_at(n + 1) + c for c in N.interior_cols(n)]
            interior[n] = cols
    c = Complex(N.pair, terms, diffs, interior)
    incl = ComplexMap(N, c, {
        n: Matrix._raw(c.dim_at(n), N.dim_at(n),
                       {(M.dim_at(n + 1) + r, r): ONE for r in range(N.dim_at(n))})
        for n in N.degrees()
    })
    proj = ComplexMap(c, M.shift(1), {
        n: Matrix._raw(M.dim_at(n + 1), c.dim_at(n),
                       {(r, r): ONE for r in range(M.dim_at(n + 1))})
        for n in degs if M.dim_at(n + 1)
    })
    return c, incl, proj


class TensorLayout:
    """Basis bookkeeping for (M (x) N)^n = sum_{i+j=n} M^i (x) N^j.

    Slot (n, i) is the block M^i (x) N^{n-i}, at offset offsets[(n, i)] of
    degree n; inside it, basis vector a (x) b sits at a * dim N^{n-i} + b.
    """

    def __init__(self, M: Complex, N: Complex):
        self.M, self.N = M, N
        self.blocks: Dict[int, List[int]] = {}   # degree -> ordered list of i
        self.offsets: Dict[Tuple[int, int], int] = {}
        self.dims: Dict[int, int] = {}
        for n in sorted({i + j for i in M.degrees() for j in N.degrees()}):
            off = 0
            blist = []
            for i in M.degrees():
                sz = M.dim_at(i) * N.dim_at(n - i)
                if sz:
                    blist.append(i)
                    self.offsets[(n, i)] = off
                    off += sz
            self.blocks[n] = blist
            self.dims[n] = off

    def dim_at(self, n: int) -> int:
        return self.dims.get(n, 0)

    def leibniz(self, left: Dict[int, Matrix], right: Dict[int, Matrix], step: int,
                right_sign: Callable[[int], int]) -> Dict[int, Matrix]:
        """The degree-step map a (x) b -> left a (x) b + right_sign(i) a (x) right b.

        left[i] maps M^i to M^{i+step} and right[j] maps N^j to N^{j+step}
        (step +1 for differentials, -1 for contractions), a has degree i.
        Returns the nonzero maps by source degree; the identity factors are
        placed, not multiplied.
        """
        M, N = self.M, self.N
        out = {}
        for n, blist in self.blocks.items():
            ents: Dict = {}
            for i in blist:
                j = n - i
                coff = self.offsets[(n, i)]
                a, b = left.get(i), right.get(j)
                if a is not None:
                    kron_into(ents, a, N.dim_at(j), self.offsets[(n + step, i + step)], coff)
                if b is not None:
                    kron_into(ents, M.dim_at(i), b, self.offsets[(n + step, i)], coff,
                              right_sign(i) < 0)
            if ents:
                out[n] = Matrix._raw(self.dims[n + step], self.dims[n], ents)
        return out


def tensor_complex(M: Complex, N: Complex) -> Complex:
    """M (x) N with d = d_M (x) 1 + koszul_right_sign(i) 1 (x) d_N (TensorLayout.leibniz).

    Each term is written block by block at the layout offsets: weights add
    and g acts by the Leibniz rule, as in gkmodules.tensor.
    """
    lay = TensorLayout(M, N)
    terms = {}
    for n, blist in lay.blocks.items():
        weights: List = []
        action: List[Dict] = [{} for _ in range(M.pair.g.dim)]
        for i in blist:
            tensor_into(weights, action, M.terms[i], N.terms[n - i], lay.offsets[(n, i)])
        d = lay.dims[n]
        terms[n] = FiniteModule(M.pair, weights, [Matrix._raw(d, d, e) for e in action])
    interior = None
    if M.interior is not None or N.interior is not None:
        interior = {}
        for n, blist in lay.blocks.items():
            cols = []
            for i in blist:
                base, ndim = lay.offsets[(n, i)], N.dim_at(n - i)
                cols += [base + a * ndim + b for a in sorted(set(M.interior_cols(i)))
                         for b in sorted(set(N.interior_cols(n - i)))]
            interior[n] = cols
    diffs = lay.leibniz(M.diffs, N.diffs, 1, signs.koszul_right_sign)
    return Complex(M.pair, terms, diffs, interior)


# -- Hom complexes ---------------------------------------------------------------


class HomLayout:
    """Coordinates for degree-n maps M -> N: blocks Hom(M^i, N^{i+n})."""

    def __init__(self, M: Complex, N: Complex, n: int):
        self.M, self.N, self.n = M, N, n
        self.blocks: List[int] = []
        self.offsets: Dict[int, int] = {}
        off = 0
        for i in sorted(M.degrees()):
            sz = M.dim_at(i) * N.dim_at(i + n)
            if sz:
                self.blocks.append(i)
                self.offsets[i] = off
                off += sz
        self.dim = off

    def unpack(self, v: SparseVector) -> Dict[int, Matrix]:
        """The block matrices of a map in these coordinates; each block is row-major."""
        out = {}
        for i in self.blocks:
            rows, cols, off = self.N.dim_at(i + self.n), self.M.dim_at(i), self.offsets[i]
            end = off + rows * cols
            out[i] = Matrix._raw(rows, cols,
                                 {divmod(k - off, cols): x for k, x in v.items() if off <= k < end})
        return out


def _hom_diff(M: Complex, N: Complex, n: int) -> Matrix:
    """Matrix of delta: Hom^n -> Hom^{n+1}, delta f = d_N f + sign(n) f d_M.

    A block f: M^i -> N^{i+n} is stored row-major, so in these coordinates
    f -> d_N f is d_N (x) 1 and f -> f d_M is 1 (x) d_M^T.
    """
    src = HomLayout(M, N, n)
    dst = HomLayout(M, N, n + 1)
    negate = signs.hom_precompose_sign(n) < 0
    ents: Dict = {}
    for i in src.blocks:
        coff = src.offsets[i]
        dn = N.diffs.get(i + n)
        if dn is not None:
            kron_into(ents, dn, M.dim_at(i), dst.offsets[i], coff)
        dm = M.diffs.get(i - 1)
        if dm is not None:
            kron_into(ents, N.dim_at(i + n), dm.transpose(), dst.offsets[i - 1], coff, negate)
    return Matrix._raw(dst.dim, src.dim, ents)


def _equivariance_constraints(M: Complex, N: Complex, n: int) -> Matrix:
    """Linear conditions for degree-n maps to be (g, K)-morphisms.

    Per block F: M^i -> N^{i+n}: one row per entry pairing different
    K-weights (it must vanish), then for each g-basis action the rows of
    an F - F am = (an (x) 1 - 1 (x) am^T) F; rows may be empty.
    """
    lay = HomLayout(M, N, n)
    ents: Dict = {}
    nrows = 0
    for i in lay.blocks:
        tm, tn, off = M.terms[i], N.terms[i + n], lay.offsets[i]
        for r, wr in enumerate(tn.k_weights):
            for c, wc in enumerate(tm.k_weights):
                if wr != wc:
                    ents[(nrows, off + r * tm.dim + c)] = ONE
                    nrows += 1
        for am, an in zip(tm.g_action, tn.g_action):
            kron_into(ents, an, tm.dim, nrows, off)
            kron_into(ents, tn.dim, am.transpose(), nrows, off, negate=True)
            nrows += tn.dim * tm.dim
    return Matrix._raw(nrows, lay.dim, ents)


def hom_complex(M: Complex, N: Complex, equivariant: bool = False) -> Complex:
    """Hom^n(M, N) as a complex of plain spaces.

    With equivariant=True the terms are cut down to (g, K)-equivariant maps;
    0-cocycles are then genuine morphisms of complexes of modules.
    """
    degs_n = []
    for i in M.degrees():
        for j in N.degrees():
            degs_n.append(j - i)
    if not degs_n:
        return Complex(trivial_pair(), {}, {})
    lo, hi = min(degs_n), max(degs_n)
    if not equivariant:
        terms = {}
        diffs = {}
        for n in range(lo, hi + 1):
            d = HomLayout(M, N, n).dim
            if d:
                terms[n] = plain_space(d)
        for n in range(lo, hi + 1):
            d = _hom_diff(M, N, n)
            if not d.is_zero():
                diffs[n] = d
        return Complex(trivial_pair(), terms, diffs)
    # equivariant: per degree, the canonical kernel of the constraints.  Its
    # vectors are 1 at their own free column, which is their largest index,
    # and 0 at the others, so the differential's coordinates are read at the
    # free columns; one exact product checks that the image lies in the span.
    bases: Dict[int, List[SparseVector]] = {}
    for n in range(lo, hi + 1):
        cons = _equivariance_constraints(M, N, n)
        bases[n] = kernel_on(cons, range(cons.cols))
    terms = {n: plain_space(len(b)) for n, b in bases.items() if b}
    diffs = {}
    for n in range(lo, hi + 1):
        src, dst = bases.get(n, []), bases.get(n + 1, [])
        if not src or not dst:
            continue
        big = _hom_diff(M, N, n)
        img = big @ Matrix._from_sparse_columns(big.cols, src)
        free = {max(v): k for k, v in enumerate(dst)}
        d = Matrix._raw(len(dst), len(src),
                        {(free[r], c): x for (r, c), x in img.entries.items() if r in free})
        if Matrix._from_sparse_columns(big.rows, dst) @ d != img:
            raise ValueError("equivariant Hom not closed under the differential")
        if not d.is_zero():
            diffs[n] = d
    return Complex(trivial_pair(), terms, diffs)


def chain_maps(M: Complex, N: Complex) -> List[Dict[int, Matrix]]:
    """Basis of the space of chain maps M -> N (0-cocycles of the Hom complex)."""
    lay, d = HomLayout(M, N, 0), _hom_diff(M, N, 0)
    return [lay.unpack(v) for v in kernel_on(d, range(d.cols))]


def homotopy_classes_dim(M: Complex, N: Complex, n: int = 0) -> int:
    """dim H^n of the plain Hom complex: degree-n maps modulo homotopy."""
    d_n = _hom_diff(M, N, n)
    return d_n.cols - rank(d_n) - rank(_hom_diff(M, N, n - 1))
