"""Bounded cochain complexes of finite modules, with shift/cone/tensor/Hom.

Terms live over a common pair; plain vector spaces are modules over the
trivial pair.  A complex may carry "interior" column marks per degree: for
truncations of infinite objects, identities (d^2 = 0, axiom checks) are
asserted only on the marked columns, where the truncation is known closed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import signs
from .gkmodules import FiniteModule, direct_sum, kron, tensor
from .liepairs import DiagGroup, LieAlgebra, Pair, ValidationReport
from .linalg import (
    Matrix,
    Vector,
    add_into,
    homology_at,
    kernel_basis,
    rank,
    solve,
)
from .reports import HomologyReport
from .scalars import ONE, Scalar, as_scalar

_TRIVIAL_PAIR: Optional[Pair] = None


def trivial_pair() -> Pair:
    global _TRIVIAL_PAIR
    if _TRIVIAL_PAIR is None:
        _TRIVIAL_PAIR = Pair(LieAlgebra(0, []), DiagGroup(), [], Matrix.zeros(0, 0))
    return _TRIVIAL_PAIR


def plain_space(dim: int) -> FiniteModule:
    P = trivial_pair()
    return FiniteModule(P, [P.K.zero_char()] * dim, [])


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
        return sum((-1) ** n * t.dim for n, t in self.terms.items())

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
        report = HomologyReport()
        for n in self.degrees():
            reps = homology_at(self.diff(n), self.diff(n - 1))
            report.dims[n] = len(reps)
            report.representatives[n] = reps
        return report

    # -- constructions ----------------------------------------------------------

    def shift(self, k: int) -> "Complex":
        sgn = signs.shift_diff_sign(k)
        terms = {n - k: t for n, t in self.terms.items()}
        diffs = {n - k: (d if sgn == 1 else -d) for n, d in self.diffs.items()}
        interior = {n - k: cols for n, cols in self.interior.items()} if self.interior else None
        return Complex(self.pair, terms, diffs, interior)

    def tensor(self, other: "Complex") -> "Complex":
        return tensor_complex(self, other)


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


def cone(f: ComplexMap) -> Tuple[Complex, ComplexMap, ComplexMap]:
    """Mapping cone with the natural maps N -> Cone(f) -> M[1].

    Cone^n = M^{n+1} (+) N^n, d(m, x) = (-d_M m, f m + d_N x).
    """
    rep = f.validate()
    if not rep:
        raise ValueError("cone of a non-chain-map: " + "; ".join(rep.violations))
    M, N = f.source, f.target
    pair = N.pair
    degs = sorted({n - 1 for n in M.degrees()} | set(N.degrees()))
    terms = {}
    for n in degs:
        parts = []
        if M.dim_at(n + 1):
            parts.append(M.term(n + 1))
        if N.dim_at(n):
            parts.append(N.term(n))
        if not parts:
            continue
        t = parts[0]
        for p in parts[1:]:
            t = direct_sum(t, p)
        terms[n] = t
    sgn = as_scalar(signs.cone_shifted_part_sign())
    diffs = {}
    for n in degs:
        rows = M.dim_at(n + 2) + N.dim_at(n + 1)
        cols = M.dim_at(n + 1) + N.dim_at(n)
        if rows == 0 or cols == 0:
            continue
        ents = {}
        dm = M.diff(n + 1)
        for (r, c), v in dm.entries.items():
            ents[(r, c)] = sgn * v
        fm = f.at(n + 1)
        for (r, c), v in fm.entries.items():
            ents[(M.dim_at(n + 2) + r, c)] = v
        dn = N.diff(n)
        for (r, c), v in dn.entries.items():
            ents[(M.dim_at(n + 2) + r, M.dim_at(n + 1) + c)] = v
        diffs[n] = Matrix(rows, cols, ents)
    interior = None
    if M.interior is not None or N.interior is not None:
        interior = {}
        for n in degs:
            cols = list(M.interior_cols(n + 1))
            cols += [M.dim_at(n + 1) + c for c in N.interior_cols(n)]
            interior[n] = cols
    c = Complex(pair, terms, diffs, interior)
    incl = ComplexMap(N, c, {
        n: Matrix(c.dim_at(n), N.dim_at(n),
                  {(M.dim_at(n + 1) + r, r): ONE for r in range(N.dim_at(n))})
        for n in N.degrees()
    })
    proj = ComplexMap(c, M.shift(1), {
        n: Matrix(M.dim_at(n + 1), c.dim_at(n),
                  {(r, r): ONE for r in range(M.dim_at(n + 1))})
        for n in degs if M.dim_at(n + 1)
    })
    return c, incl, proj


class TensorLayout:
    """Basis bookkeeping for (M (x) N)^n = sum_{i+j=n} M^i (x) N^j."""

    def __init__(self, M: Complex, N: Complex):
        self.M, self.N = M, N
        self.blocks: Dict[int, List[int]] = {}   # degree -> ordered list of i
        self.offsets: Dict[Tuple[int, int], int] = {}
        degs = set()
        for i in M.degrees():
            for j in N.degrees():
                degs.add(i + j)
        for n in sorted(degs):
            off = 0
            blist = []
            for i in sorted(M.degrees()):
                j = n - i
                sz = M.dim_at(i) * N.dim_at(j)
                if sz:
                    blist.append(i)
                    self.offsets[(n, i)] = off
                    off += sz
            self.blocks[n] = blist

    def dim_at(self, n: int) -> int:
        return sum(self.M.dim_at(i) * self.N.dim_at(n - i) for i in self.blocks.get(n, []))

    def place(self, block: Matrix, source: Tuple[int, int], target: Tuple[int, int],
              ents: Dict) -> None:
        """Add a block mapping slot source into slot target; slot (n, i) is M^i (x) N^{n-i}."""
        roff = self.offsets[target]
        coff = self.offsets[source]
        for (r, c), v in block.entries.items():
            add_into(ents, (roff + r, coff + c), v)


def tensor_complex(M: Complex, N: Complex) -> Complex:
    lay = TensorLayout(M, N)
    terms = {}
    for n, blist in lay.blocks.items():
        parts = [tensor(M.term(i), N.term(n - i)) for i in blist]
        if not parts:
            continue
        t = parts[0]
        for p in parts[1:]:
            t = direct_sum(t, p)
        if t.dim:
            terms[n] = t
    diffs = {}
    interior = None
    if M.interior is not None or N.interior is not None:
        interior = {}
        for n, blist in lay.blocks.items():
            cols = []
            for i in blist:
                mi = set(M.interior_cols(i))
                nj = set(N.interior_cols(n - i))
                base = lay.offsets[(n, i)]
                ndim = N.dim_at(n - i)
                for a in range(M.dim_at(i)):
                    for b in range(ndim):
                        if a in mi and b in nj:
                            cols.append(base + a * ndim + b)
            interior[n] = cols
    for n in sorted(lay.blocks):
        if lay.dim_at(n + 1) == 0 or lay.dim_at(n) == 0:
            continue
        ents: Dict = {}
        for i in lay.blocks[n]:
            j = n - i
            dm = M.diff(i)
            if not dm.is_zero() and (n + 1, i + 1) in lay.offsets:
                lay.place(kron(dm, Matrix.identity(N.dim_at(j))), (n, i), (n + 1, i + 1), ents)
            dn = N.diff(j)
            if not dn.is_zero() and (n + 1, i) in lay.offsets:
                sgn = as_scalar(signs.koszul_right_sign(i))
                lay.place(kron(Matrix.identity(M.dim_at(i)), dn).scale(sgn), (n, i), (n + 1, i),
                          ents)
        d = Matrix(lay.dim_at(n + 1), lay.dim_at(n), ents)
        if not d.is_zero():
            diffs[n] = d
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

    def unpack(self, v: Vector) -> Dict[int, Matrix]:
        out = {}
        for i in self.blocks:
            rows, cols = self.N.dim_at(i + self.n), self.M.dim_at(i)
            ents = {}
            for r in range(rows):
                for c in range(cols):
                    x = v[self.offsets[i] + r * cols + c]
                    if not x.is_zero():
                        ents[(r, c)] = x
            out[i] = Matrix(rows, cols, ents)
        return out


def _hom_diff(M: Complex, N: Complex, n: int) -> Matrix:
    """Matrix of delta: Hom^n -> Hom^{n+1}, delta f = d_N f + sign(n) f d_M."""
    src = HomLayout(M, N, n)
    dst = HomLayout(M, N, n + 1)
    sgn = as_scalar(signs.hom_precompose_sign(n))
    ents: Dict = {}
    for i in src.blocks:
        cols_m = M.dim_at(i)
        # d_N o f : block i -> block i (degree raises on the N side)
        dn = N.diff(i + n)
        if i in dst.offsets and not dn.is_zero():
            for (a, b), v in dn.entries.items():
                # (d f)(x_c) row a = sum_b dn[a,b] f[b,c]
                for c in range(cols_m):
                    add_into(ents, (dst.offsets[i] + a * cols_m + c,
                                    src.offsets[i] + b * cols_m + c), v)
        # f o d_M : block i -> block i-1 (degree raises on the M side)
        dm = M.diff(i - 1)
        if (i - 1) in dst.offsets and not dm.is_zero():
            cols_m1 = M.dim_at(i - 1)
            rows_n = N.dim_at(i + n)
            for (b, c), v in dm.entries.items():
                # (f d)(x_c) row a = sum_b f[a,b] dm[b,c]
                for a in range(rows_n):
                    add_into(ents, (dst.offsets[i - 1] + a * cols_m1 + c,
                                    src.offsets[i] + a * cols_m + b), sgn * v)
    return Matrix(dst.dim, src.dim, ents)


def _equivariance_constraints(M: Complex, N: Complex, n: int) -> Matrix:
    """Linear conditions for degree-n maps to be (g, K)-morphisms.

    Rows: commutation with every g-basis action in every block, plus weight
    compatibility (entries pairing different K-weights must vanish).
    """
    lay = HomLayout(M, N, n)
    rows: List[Dict[int, Scalar]] = []
    K = M.pair.K
    for i in lay.blocks:
        tm, tn = M.term(i), N.term(i + n)
        cols_m = tm.dim
        # weight mismatch entries forced to zero
        for r in range(tn.dim):
            for c in range(cols_m):
                if tn.k_weights[r] != tm.k_weights[c]:
                    rows.append({lay.offsets[i] + r * cols_m + c: ONE})
        for j in range(M.pair.g.dim):
            am, an = tm.g_action[j], tn.g_action[j]
            # an @ F - F @ am = 0, one row per output entry
            for r in range(tn.dim):
                for c in range(cols_m):
                    row: Dict[int, Scalar] = {}
                    for (a, b), v in an.entries.items():
                        if a == r:
                            add_into(row, lay.offsets[i] + b * cols_m + c, v)
                    for (b, c2), v in am.entries.items():
                        if c2 == c:
                            add_into(row, lay.offsets[i] + r * cols_m + b, -v)
                    if row:
                        rows.append(row)
    ents = {}
    for ridx, row in enumerate(rows):
        for k, v in row.items():
            ents[(ridx, k)] = v
    return Matrix(len(rows), lay.dim, ents)


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
    # equivariant: per degree, a basis of the constrained subspace, and the
    # differential expressed in those bases by exact solving
    bases: Dict[int, List[Vector]] = {}
    for n in range(lo, hi + 1):
        cons = _equivariance_constraints(M, N, n)
        bases[n] = kernel_basis(cons) if cons.cols else []
    terms = {n: plain_space(len(b)) for n, b in bases.items() if b}
    diffs = {}
    for n in range(lo, hi + 1):
        src, dst = bases.get(n, []), bases.get(n + 1, [])
        if not src or not dst:
            continue
        big = _hom_diff(M, N, n)
        cols = []
        dst_mat = Matrix.from_columns(dst)
        for v in src:
            img = big.apply(v)
            x = solve(dst_mat, img)
            if x is None:
                raise ValueError("equivariant Hom not closed under the differential")
            cols.append(x)
        d = Matrix.from_columns(cols, rows=len(dst))
        if not d.is_zero():
            diffs[n] = d
    return Complex(trivial_pair(), terms, diffs)


def chain_maps(M: Complex, N: Complex) -> List[Dict[int, Matrix]]:
    """Basis of the space of chain maps M -> N (0-cocycles of the Hom complex)."""
    lay = HomLayout(M, N, 0)
    d = _hom_diff(M, N, 0)
    if lay.dim == 0:
        return []
    return [lay.unpack(v) for v in kernel_basis(d)]


def homotopy_classes_dim(M: Complex, N: Complex, n: int = 0) -> int:
    """dim H^n of the plain Hom complex: degree-n maps modulo homotopy."""
    d_n = _hom_diff(M, N, n)
    d_prev = _hom_diff(M, N, n - 1)
    return len(kernel_basis(d_n)) - rank(d_prev)
