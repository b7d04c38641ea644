"""Exact sparse linear algebra over Q(i): rank, kernel, solve, span arithmetic.

Every "cycles modulo boundaries" question in the package goes through two
routines: ``kernel_on`` gives the canonical kernel of a matrix on a set of
its columns, and ``independent_over`` keeps the candidates that extend the
span of a matrix's columns, by one elimination of those columns.  Every
column, Lie-algebra element and coordinate vector that crosses a module
boundary is a ``SparseVector``, an {index: Scalar} map with no stored zeros:
``sparse_columns`` reads a matrix's columns in that form and
``Matrix._from_sparse_columns`` places them back.

Three outputs stay dense coordinate tuples (``Vector``): ``kernel_basis``
(the band windows of ``bands`` read its basis) and ``solve``, which the
benchmark's layer timers in ``bench/layers.py`` wrap by these names and
signatures; and ``dense``, which writes a sparse vector as the coordinate list
in which a finite homology representative is reported.

Matrices are stored as sparse maps (row, col) -> Scalar, and elimination
rows as sparse maps col -> Scalar.  No sparse map in the package holds an
explicit zero: ``add_into`` is the one way to accumulate into such a map, and
every module that builds one goes through it.  ``Matrix(...)`` validates
input from Python callers (literal rows, tests): it range-checks, coerces
and drops zeros.  A builder whose entries it produced itself, from Scalars
of other matrices, places them through ``Matrix._raw`` and is not checked
again; so do the JSON loaders of ``schemas``, which check each entry as they
read it.

Every exact elimination goes through ``_rref``, which keeps a column index
(column -> ids of the rows holding it) current through fill-in and
cancellation, so a column costs the rows that hold it, not the row count.
Columns are processed left to right, and the pivot row is the unreduced
holder of least support, lowest row id on ties.  The reduced echelon form is
unique, so every basis this module returns is canonical whatever the pivot
order.

The one elimination outside Q(i) is ``rank_mod_p``: the rank of sparse
vectors reduced modulo the prime P = 1_000_000_009 (P = 1 mod 4), with i sent
to a square root of -1.  That reduction is a ring map, so a minor that is
nonzero mod P is nonzero over Q(i): the rank mod P is a lower bound for the
rank, never a rank, and callers use it only where a lower bound proves
something.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .scalars import ONE, ZERO, Scalar, as_scalar

Vector = Tuple[Scalar, ...]
SparseVector = Dict[int, Scalar]


def add_into(acc: Dict, key, v) -> None:
    """acc[key] += v on a sparse map that holds no zeros.

    A key that sums to zero is dropped; a new key stores v itself, so v must
    be immutable (Scalar, Poly).  Surviving keys keep their insertion order.
    """
    old = acc.get(key)
    if old is None:
        if not v.is_zero():
            acc[key] = v
        return
    s = old + v
    if s.is_zero():
        del acc[key]
    else:
        acc[key] = s


class Matrix:
    """Sparse rows x cols matrix over Q(i)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Optional[Dict[Tuple[int, int], Scalar]] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        ents: Dict[Tuple[int, int], Scalar] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) out of bounds for {rows}x{cols}")
                v = as_scalar(v)
                if not v.is_zero():
                    ents[(r, c)] = v
        self.entries = ents

    # -- constructors --------------------------------------------------------

    @staticmethod
    def _raw(rows: int, cols: int, entries: Dict[Tuple[int, int], Scalar]) -> "Matrix":
        """Internal: entries already validated (in range, Scalar, nonzero)."""
        m = object.__new__(Matrix)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @staticmethod
    def _from_sparse_columns(rows: int, columns: Sequence[SparseVector]) -> "Matrix":
        """Internal: the rows x len(columns) matrix with these sparse columns."""
        return Matrix._raw(rows, len(columns),
                           {(r, j): x for j, v in enumerate(columns) for r, x in v.items()})

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        ents = {}
        for r, row in enumerate(rows):
            if len(row) != nc:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = as_scalar(v)
                if not v.is_zero():
                    ents[(r, c)] = v
        return Matrix(nr, nc, ents)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._raw(n, n, {(k, k): ONE for k in range(n)})

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._raw(rows, cols, {})

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        n = len(values)
        return Matrix(n, n, {(k, k): as_scalar(v) for k, v in enumerate(values)})

    # -- access ---------------------------------------------------------------

    def __getitem__(self, rc: Tuple[int, int]) -> Scalar:
        return self.entries.get(rc, ZERO)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        if self.rows * self.cols > 64:
            return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"
        return "Matrix(" + "; ".join(
            " ".join(repr(self[r, c]) for c in range(self.cols)) for r in range(self.rows)
        ) + ")"

    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        ents = dict(self.entries)
        for rc, v in other.entries.items():
            add_into(ents, rc, v)
        return Matrix._raw(self.rows, self.cols, ents)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix._raw(self.rows, self.cols, {rc: -v for rc, v in self.entries.items()})

    def scale(self, c) -> "Matrix":
        """c times self; c = 1 returns self (entries are never mutated in place)."""
        c = as_scalar(c)
        if c.is_zero():
            return Matrix.zeros(self.rows, self.cols)
        if c == ONE:
            return self
        if -c == ONE:
            return -self
        return Matrix._raw(self.rows, self.cols,
                           {rc: c * v for rc, v in self.entries.items()})

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row: Dict[int, List[Tuple[int, Scalar]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: Dict[Tuple[int, int], Scalar] = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                add_into(acc, (r, c), v * w)
        return Matrix._raw(self.rows, other.cols, acc)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self @ other
        return self.scale(other)

    __rmul__ = scale

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    def restrict_columns(self, cols: Sequence[int]) -> "Matrix":
        """Submatrix keeping the given columns, in the given order."""
        index = {c: j for j, c in enumerate(cols)}
        ents = {}
        for (r, c), v in self.entries.items():
            j = index.get(c)
            if j is not None:
                ents[(r, j)] = v
        return Matrix._raw(self.rows, len(cols), ents)

    @staticmethod
    def block_diag(blocks: Sequence["Matrix"]) -> "Matrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        ents = {}
        r0 = c0 = 0
        for b in blocks:
            for (r, c), v in b.entries.items():
                ents[(r0 + r, c0 + c)] = v
            r0 += b.rows
            c0 += b.cols
        return Matrix._raw(rows, cols, ents)

    # -- serialization --------------------------------------------------------

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [
                [r, c, v.to_json()] for (r, c), v in sorted(self.entries.items())
            ],
        }


# -- elimination --------------------------------------------------------------


def _row_step(row: SparseVector, c: Scalar, prow: SparseVector) -> None:
    """row -= c * prow, in place."""
    neg = -c
    for k, v in prow.items():
        add_into(row, k, neg * v)


def _rref(rows: List[SparseVector], ncols: int) -> Tuple[List[SparseVector], List[int]]:
    """In-place reduced row echelon form on sparse rows; returns (pivot rows, pivot cols).

    ``holders[c]`` holds the ids (list positions) of the rows with an entry in
    column c.  It is built in one pass and kept current by the elimination
    step, which adds a row where fill-in creates an entry and drops it where
    an entry cancels, so each column costs the rows that hold it.  Columns are
    processed left to right; the pivot is the unreduced holder of least
    support, lowest id on ties.
    """
    holders: Dict[int, Set[int]] = defaultdict(set)
    unreduced = 0  # nonzero rows not yet taken as pivots
    for i, row in enumerate(rows):
        if row:
            unreduced += 1
            for c in row:
                holders[c].add(i)
    reduced = [False] * len(rows)
    out: List[SparseVector] = []
    pivots: List[int] = []
    for col in range(ncols):
        if not unreduced:
            break
        held = holders.get(col)
        if not held:
            continue
        best = None
        for i in held:
            if not reduced[i]:
                key = (len(rows[i]), i)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        p = best[1]
        prow = rows[p]
        if prow[col] != ONE:
            inv = prow[col].inverse()
            prow = rows[p] = {c: inv * v for c, v in prow.items()}
        reduced[p] = True
        unreduced -= 1
        out.append(prow)
        pivots.append(col)
        holders[col] = {p}
        for i in held:
            if i == p:
                continue
            row = rows[i]
            neg = -row.pop(col)
            for k, v in prow.items():
                if k == col:
                    continue
                old = row.get(k)
                if old is None:
                    row[k] = neg * v
                    holders[k].add(i)
                    continue
                s = old + neg * v
                if s.is_zero():
                    del row[k]
                    holders[k].discard(i)
                else:
                    row[k] = s
            if not row:
                unreduced -= 1
    return out, pivots


def _sparse_rows(m: Matrix) -> List[SparseVector]:
    rows: List[SparseVector] = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    return rows


def sparse_columns(m: Matrix) -> List[SparseVector]:
    """The columns of m as sparse vectors."""
    cols: List[SparseVector] = [dict() for _ in range(m.cols)]
    for (r, c), v in m.entries.items():
        cols[c][r] = v
    return cols


def dense(v: SparseVector, n: int) -> Vector:
    """The length-n coordinate tuple of a sparse vector."""
    out = [ZERO] * n
    for k, x in v.items():
        out[k] = x
    return tuple(out)


def rank(m: Matrix) -> int:
    _, pivots = _rref(_sparse_rows(m), m.cols)
    return len(pivots)


def _null_space(rows: List[SparseVector], ncols: int) -> List[SparseVector]:
    """Canonical null space basis (free entry = 1) of reduced rows, sparse, by free column."""
    by_pivot = {min(row): row for row in rows}  # a reduced row starts at its pivot
    basis = {f: {f: ONE} for f in range(ncols) if f not in by_pivot}
    for pcol, prow in by_pivot.items():
        for f, coeff in prow.items():
            if f != pcol:
                basis[f][pcol] = -coeff
    return list(basis.values())


def kernel_basis(m: Matrix) -> List[Vector]:
    """Basis of the right null space in canonical reduced form (free entry = 1)."""
    rows, _ = _rref(_sparse_rows(m), m.cols)
    return [dense(v, m.cols) for v in _null_space(rows, m.cols)]


def cokernel_dim(m: Matrix) -> int:
    return m.rows - rank(m)


def row_space_rows(m: Matrix) -> List[SparseVector]:
    """The nonzero rows of m's reduced echelon form, in pivot order."""
    rows, _ = _rref(_sparse_rows(m), m.cols)
    return rows


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = _sparse_rows(m)
    for r in range(n):
        aug[r][n + r] = ONE
    rows, pivots = _rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    ents = {}
    for r, prow in enumerate(rows[:n]):
        for c, v in prow.items():
            if c >= n:
                ents[(r, c - n)] = v
    return Matrix._raw(n, n, ents)


def solve(m: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution x of m x = b, or None if inconsistent."""
    aug_rows = _sparse_rows(m)
    for r in range(m.rows):
        if not b[r].is_zero():
            aug_rows[r][m.cols] = b[r]
    rows, pivots = _rref(aug_rows, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for prow, pcol in zip(rows, pivots):
        x[pcol] = prow.get(m.cols, ZERO)
    return tuple(x)


class Subspace:
    """A subspace of an ambient coordinate space, held in reduced echelon form.

    Vectors are sparse.  ``_rows`` maps each pivot column to its reduced row,
    so two spans that are equal are held identically, however they were built.
    """

    def __init__(self, dim_ambient: int, vectors: Iterable[SparseVector] = ()):
        self.dim_ambient = dim_ambient
        self._rows: Dict[int, SparseVector] = {}
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: SparseVector) -> SparseVector:
        """v minus its projection onto the span along the pivot columns.

        A reduced row is zero on every other pivot column, so the multiple of
        each row to take off is v's own entry at its pivot.
        """
        row = dict(v)
        for pcol, x in v.items():
            prow = self._rows.get(pcol)
            if prow is not None:
                _row_step(row, x, prow)
        return row

    def add(self, v: SparseVector) -> bool:
        """Insert v; returns True if the dimension grew."""
        row = self._reduce(v)
        if not row:
            return False
        pcol = min(row)
        inv = row[pcol].inverse()
        row = {c: inv * w for c, w in row.items()}
        # back-substitute into existing rows to keep reduced form
        for prow in self._rows.values():
            coeff = prow.get(pcol)
            if coeff is not None:
                _row_step(prow, coeff, row)
        self._rows[pcol] = row
        return True

    def contains(self, v: SparseVector) -> bool:
        return not self._reduce(v)


def column_space(m: Matrix) -> Subspace:
    """The span of the columns of m, by one elimination over its sparse columns."""
    space = Subspace(m.rows)
    rows, pivots = _rref(sparse_columns(m), m.rows)
    space._rows = dict(zip(pivots, rows))
    return space


def independent_over(base: Matrix, candidates: Iterable[SparseVector]) -> List[SparseVector]:
    """The candidates that extend the span of base's columns and of the candidates before them.

    One elimination of base's columns, then one reduction per candidate.
    """
    space = column_space(base)
    return [v for v in candidates if space.add(v)]


P = 1_000_000_009  # prime, P = 1 mod 4, below 2**30
SQRT_MINUS_ONE = 569522298  # SQRT_MINUS_ONE**2 = -1 mod P


def rank_mod_p(vectors: Iterable[SparseVector]) -> Optional[int]:
    """The rank mod P of sparse Q(i) vectors: a lower bound for their rank.

    An entry (a + b*i)/d becomes (a + b*SQRT_MINUS_ONE) / d mod P.  Each vector
    is reduced by the echelon rows kept so far, at its least index, until it
    vanishes or is kept with a new leading index.  None when P divides a
    denominator, where the reduction is not defined.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for v in vectors:
        row = {}
        for k, x in v.items():
            r = x.residue(P, SQRT_MINUS_ONE)
            if r is None:
                return None
            if r:
                row[k] = r
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], -1, P)
                pivots[lead] = {k: y * inv % P for k, y in row.items()}
                break
            f = row[lead]
            for k, y in prow.items():
                z = (row.get(k, 0) - f * y) % P
                if z:
                    row[k] = z
                else:
                    del row[k]
    return len(pivots)


def kernel_on(m: Matrix, cols: Sequence[int]) -> List[SparseVector]:
    """Canonical kernel basis of m's columns ``cols``, indexed by m's columns."""
    rows = row_space_rows(m.restrict_columns(cols))
    return [{cols[c]: x for c, x in v.items()} for v in _null_space(rows, len(cols))]
