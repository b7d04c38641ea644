"""Exact sparse linear algebra over Q(i): rank, kernel, solve, span arithmetic.

Matrices are stored as sparse maps (row, col) -> Scalar, and elimination
rows as sparse maps col -> Scalar.  No sparse map in the package holds an
explicit zero: ``add_into`` is the one way to accumulate into such a map, and
every module that builds one goes through it.  ``Matrix(...)`` validates
input from outside the library (JSON, literal rows, tests): it range-checks,
coerces and drops zeros.  A builder whose entries it produced itself, from
Scalars of other matrices, places them through ``Matrix._raw`` and is not
checked again.  All eliminations are exact;
pivot rows are chosen by minimal support with lowest-index tie-break so that
every basis this module returns is deterministic across runs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar, as_scalar

Vector = Tuple[Scalar, ...]


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


def vec(entries: Iterable) -> Vector:
    return tuple(as_scalar(x) for x in entries)


def unit_vec(n: int, j: int) -> Vector:
    return tuple(ONE if k == j else ZERO for k in range(n))


def vec_is_zero(v: Vector) -> bool:
    return all(a.is_zero() for a in v)


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
    def from_columns(cols: Sequence[Vector], rows: Optional[int] = None) -> "Matrix":
        if rows is None:
            rows = len(cols[0]) if cols else 0
        ents = {}
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                if not v.is_zero():
                    ents[(i, j)] = v
        return Matrix(rows, len(cols), ents)

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        n = len(values)
        return Matrix(n, n, {(k, k): as_scalar(v) for k, v in enumerate(values)})

    # -- access ---------------------------------------------------------------

    def __getitem__(self, rc: Tuple[int, int]) -> Scalar:
        return self.entries.get(rc, ZERO)

    def column(self, c: int) -> Vector:
        return tuple(self.entries.get((r, c), ZERO) for r in range(self.rows))

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

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for (r, c), a in self.entries.items():
            if not v[c].is_zero():
                out[r] = out[r] + a * v[c]
        return tuple(out)

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

    @staticmethod
    def from_json(obj) -> "Matrix":
        ents = {}
        for r, c, v in obj.get("entries", []):
            ents[(int(r), int(c))] = Scalar.from_json(v)
        return Matrix(int(obj["rows"]), int(obj["cols"]), ents)


# -- elimination --------------------------------------------------------------


def _row_step(row: Dict[int, Scalar], c: Scalar, prow: Dict[int, Scalar]) -> None:
    """row -= c * prow, in place."""
    neg = -c
    for k, v in prow.items():
        add_into(row, k, neg * v)


def _rref(rows: List[Dict[int, Scalar]], ncols: int) -> Tuple[List[Dict[int, Scalar]], List[int]]:
    """In-place reduced row echelon form on sparse rows; returns (rows, pivot cols).

    Columns are processed left to right; among candidate pivot rows the one
    with minimal support is taken (lowest index on ties) for determinism.
    """
    pivots: List[int] = []
    top = 0
    live = [r for r in rows if r]
    for col in range(ncols):
        best = None
        for k in range(top, len(live)):
            if col in live[k]:
                key = (len(live[k]), k)
                if best is None or key < best[0]:
                    best = (key, k)
        if best is None:
            continue
        k = best[1]
        live[top], live[k] = live[k], live[top]
        prow = live[top]
        inv = prow[col].inverse()
        prow = {c: inv * v for c, v in prow.items()}
        live[top] = prow
        for k, other in enumerate(live):
            coeff = other.get(col)
            if coeff is not None and k != top:
                _row_step(other, coeff, prow)
        pivots.append(col)
        top += 1
        if top == len(live):
            break
    return live[:top], pivots


def _sparse_rows(m: Matrix) -> List[Dict[int, Scalar]]:
    rows: List[Dict[int, Scalar]] = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    return rows


def rank(m: Matrix) -> int:
    _, pivots = _rref(_sparse_rows(m), m.cols)
    return len(pivots)


def kernel_basis(m: Matrix) -> List[Vector]:
    """Basis of the right null space in canonical reduced form (free entry = 1)."""
    rows, pivots = _rref(_sparse_rows(m), m.cols)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for prow, pcol in zip(rows, pivots):
            coeff = prow.get(f)
            if coeff is not None:
                v[pcol] = -coeff
        basis.append(tuple(v))
    return basis


def cokernel_dim(m: Matrix) -> int:
    return m.rows - rank(m)


def row_space_rows(m: Matrix) -> List[Dict[int, Scalar]]:
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

    The rows are sorted by pivot column, so two spans that are equal are held
    identically, however they were built.
    """

    def __init__(self, dim_ambient: int, vectors: Iterable[Vector] = ()):
        self.dim_ambient = dim_ambient
        self._rows: List[Dict[int, Scalar]] = []
        self._pivots: List[int] = []
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Vector) -> Dict[int, Scalar]:
        """v minus its projection onto the span along the pivot columns."""
        row = {c: x for c, x in enumerate(v) if not x.is_zero()}
        for prow, pcol in zip(self._rows, self._pivots):
            coeff = row.get(pcol)
            if coeff is not None:
                _row_step(row, coeff, prow)
        return row

    def add(self, v: Vector) -> bool:
        """Insert v; returns True if the dimension grew."""
        row = self._reduce(v)
        if not row:
            return False
        pcol = min(row)
        inv = row[pcol].inverse()
        row = {c: inv * w for c, w in row.items()}
        # back-substitute into existing rows to keep reduced form
        for prow in self._rows:
            coeff = prow.get(pcol)
            if coeff is not None:
                _row_step(prow, coeff, row)
        pos = bisect_left(self._pivots, pcol)
        self._rows.insert(pos, row)
        self._pivots.insert(pos, pcol)
        return True

    def contains(self, v: Vector) -> bool:
        return not self._reduce(v)


def column_space(m: Matrix) -> Subspace:
    """The span of the columns of m, by one elimination over its sparse columns."""
    cols: List[Dict[int, Scalar]] = [dict() for _ in range(m.cols)]
    for (r, c), v in m.entries.items():
        cols[c][r] = v
    space = Subspace(m.rows)
    space._rows, space._pivots = _rref(cols, m.rows)
    return space


def independent_over(ambient: int, base: Iterable[Vector], candidates: Iterable[Vector]) -> List[Vector]:
    """Candidates that successively extend span(base); used for homology reps."""
    space = Subspace(ambient, base)
    out = []
    for v in candidates:
        if space.add(v):
            out.append(v)
    return out


def homology_at(d_out: Matrix, d_in: Matrix) -> List[Vector]:
    """Canonical representatives of ker d_out / im d_in.

    The cycles are the canonical kernel basis of d_out; each one that extends
    the span of the boundaries and of the cycles before it is kept.  Raises
    ValueError when the boundaries are not cycles (d_out @ d_in != 0).
    """
    cycles = kernel_basis(d_out)
    image = column_space(d_in)
    boundary_rank = image.dim
    reps = [v for v in cycles if image.add(v)]
    if len(reps) != len(cycles) - boundary_rank:
        raise ValueError("not a complex: boundaries are not cycles (d_out @ d_in != 0)")
    return reps
