"""Band operators on Z-graded spaces and window-certified kernel/cokernel.

A band operator sends a graded line f_n to a finite sum of lines f_{n+s} with
coefficients polynomial in n.  Kernels are computed on windows with no output
truncation, so every reported kernel vector is a genuine global kernel
vector; cokernels are computed as kernels of the transposed operator on the
graded dual, i.e. as solution spaces of the adjoint linear recurrence.

A ``BandOp`` is not changed after ``__init__``, so it keeps every line f_n it
evaluates: the kernel and cokernel windows, and anything that checked the
table before them, read one evaluation per line and operator.

A window dimension is certified only past N* = ``root_bound(op)``, the
indicial-root bound for finite-support solutions of linear recurrences
(Abramov 1989; Abramov, Bronstein and Petkovsek 1995).  Let B bound the
moduli of the roots of the extreme-shift coefficients c_lo and c_hi.  A
finitely supported kernel vector with top index t leaves c_hi(t) alone on
f_{t+hi}, so c_hi(t) = 0, and likewise at its bottom index: the support lies
in [-B, B].  Past B the adjoint recurrence sum_s c_s(n) y_{n+s} = 0 runs
both ways uniquely, since its extreme coefficients do not vanish there, so
every solution on a window N >= B + max|s| extends, uniquely, to all of Z.
A window N >= N* = B + max|s| therefore already holds the whole kernel and
cokernel.  ``_stabilize`` computes the windows W = max(16, N*) and W + 8,
both past N*, and certifies the dimension when they agree.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .linalg import Matrix, add_into, kernel_basis
from .poly import Poly
from .reports import Stabilization
from .scalars import Scalar, as_scalar


class BandOp:
    """Sum over shifts s of (coefficient polynomial in n) * (shift by s).

    Not changed after ``__init__``; ``apply_line`` keeps its lines in ``_lines``.
    """

    __slots__ = ("table", "_lines")

    def __init__(self, table: Optional[Dict[int, Poly]] = None):
        self.table: Dict[int, Poly] = {}
        self._lines: Dict[int, Dict[int, Scalar]] = {}
        if table:
            for s, p in table.items():
                if not isinstance(p, Poly):
                    p = Poly.const(p)
                if not p.is_zero():
                    self.table[int(s)] = p

    def shifts(self) -> List[int]:
        return sorted(self.table)

    def max_shift(self) -> int:
        return max((abs(s) for s in self.table), default=0)

    def coeff(self, s: int) -> Poly:
        return self.table.get(s, Poly())

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other):
        if not isinstance(other, BandOp):
            return NotImplemented
        return self.table == other.table

    def __add__(self, other: "BandOp") -> "BandOp":
        out = dict(self.table)
        for s, p in other.table.items():
            add_into(out, s, p)
        return BandOp(out)

    def __neg__(self):
        return BandOp({s: -p for s, p in self.table.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "BandOp":
        c = as_scalar(c)
        if c.is_zero():
            return BandOp()
        return BandOp({s: p * c for s, p in self.table.items()})

    def compose(self, other: "BandOp") -> "BandOp":
        """self after other: (self . other) f_n."""
        out: Dict[int, Poly] = {}
        for sb, pb in other.table.items():
            for sa, pa in self.table.items():
                add_into(out, sa + sb, pa.shift(sb) * pb)
        return BandOp(out)

    def __matmul__(self, other):
        return self.compose(other)

    def commutator(self, other: "BandOp") -> "BandOp":
        return self.compose(other) - other.compose(self)

    def apply_line(self, n: int) -> Dict[int, Scalar]:
        """Image of f_n as a sparse {index: coefficient} map.

        Evaluated once per operator and n: the map is kept by the operator and
        shared by every caller, so it is read-only.
        """
        line = self._lines.get(n)
        if line is None:
            line = self._lines[n] = {}
            for s, p in self.table.items():
                c = p(n)
                if c:
                    line[n + s] = c
        return line

    def windowed_matrix(self, source: Sequence[int]) -> Tuple[List[int], Matrix]:
        """Matrix from span{f_n : n in source} into the full (enlarged) image span.

        No output truncation: the target index list contains every index hit
        by the operator, so kernel vectors of this matrix are global kernel
        vectors supported on the source window.
        """
        targets = sorted({n + s for n in source for s in self.table})
        tindex = {n: i for i, n in enumerate(targets)}
        columns: Dict[int, Dict[int, Scalar]] = {}
        for j, n in enumerate(source):
            col = {}
            for m, c in self.apply_line(n).items():
                col[tindex[m]] = c
            if col:
                columns[j] = col
        return targets, Matrix._raw(len(targets), len(source), columns)

    def __repr__(self):
        if not self.table:
            return "BandOp(0)"
        return "BandOp(" + ", ".join(f"{s:+d}: {p!r}" for s, p in sorted(self.table.items())) + ")"

    def to_json(self):
        return {str(s): p.to_json() for s, p in sorted(self.table.items())}

    @staticmethod
    def from_json(obj) -> "BandOp":
        return BandOp({int(s): Poly.from_json(p) for s, p in obj.items()})


def root_bound(op: BandOp) -> int:
    """N*: the window radius past which op's kernel and cokernel are complete.

    Cauchy's bound 1 + max_i |c_i/c_d| on the roots of each extreme-shift
    coefficient c_0 + ... + c_d n^d of degree d >= 1, in integers through
    |x + iy| <= |x| + |y| and rounded up; the larger of the two, plus
    op.max_shift().  See the module docstring for why it suffices.
    """
    bound = 0
    shifts = op.shifts()
    for s in {shifts[0], shifts[-1]} if shifts else ():
        *low, top = op.table[s].coeffs
        if low:
            bound = max(bound, 1 + max((c / top).abs_ceil() for c in low))
    return bound + op.max_shift()


class DegenerateBandError(ValueError):
    """Kernel or cokernel not finite: a zero operator, or a target class no line reaches."""


def _stabilize(kind: str, nstar: int, columns: Callable[[int], List[int]],
               matrix: Callable[[int, List[int]], Matrix]):
    """Kernel dim on the windows W = max(16, N*) and W + 8, both past N*.

    columns(N) returns the indices of the matrix columns for window N and
    matrix(N, cols) the matrix.  Both windows lie past N*, so the dims of a
    nonzero operator agree (module docstring) unless some column index is
    reached by no line.  Such an index is free at every window, so the
    dimension is infinite and unequal dims raise DegenerateBandError.  The
    check is exact when the column class gains an index on each side between
    W and W + 8, which holds for every class of modulus <= 8; every caller of
    ``class_indices`` uses modulus 2 or 4.  The floor 16 fixes the windows of
    every operator with N* <= 15 at (16, 24), so their reports, which record
    the windows and the representatives, do not depend on N*.  Returns (dim,
    representatives, Stabilization), with representatives read on the window
    W + 8; the Stabilization is always certified.
    """
    w = max(16, nstar)
    windows = [w, w + 8]
    dims = []
    for N in windows:
        cols = columns(N)
        basis = kernel_basis(matrix(N, cols))
        dims.append(len(basis))
    if dims[0] != dims[1]:
        raise DegenerateBandError(f"{kind} dims {dims} differ past N* = {nstar}")
    reps = [{n: c for n, c in zip(cols, v) if not c.is_zero()} for v in basis]
    return dims[1], reps, Stabilization(windows, dims, True)


def band_kernel(op: BandOp, indices: Callable[[int], List[int]]):
    """Certified kernel of a band operator restricted to the given index classes.

    indices(N) must return the source K-type indices inside the window |n| <= N.
    Returns (dim, representatives, Stabilization), certified by the windows
    past N* = root_bound(op); raises DegenerateBandError when the kernel is
    not finite, as for the zero operator.
    """
    if op.is_zero():
        raise DegenerateBandError("kernel of the zero band operator is not finite")
    return _stabilize("kernel", root_bound(op), indices,
                      lambda N, source: op.windowed_matrix(source)[1])


def band_cokernel(op: BandOp, source_indices: Callable[[int], List[int]],
                  target_indices: Callable[[int], List[int]]):
    """Certified cokernel dimension of a band operator.

    Computed as the kernel of the transposed operator on the graded dual: the
    solution space of the adjoint recurrence sum_s coeff_s(n) c_{n+s} = 0,
    on the windows of ``_stabilize``.  Equations are imposed for every source
    index whose full stencil lies inside the window; free/constrained branch
    points (vanishing leading coefficients) are handled automatically because
    the equations are solved globally per window.  Each equation row is the
    operator's kept line f_n, so kernel and cokernel evaluate it once.
    """
    if op.is_zero():
        raise DegenerateBandError("cokernel of the zero band operator is not finite")
    shifts = op.shifts()

    def matrix(N, targets):
        tindex = {n: i for i, n in enumerate(targets)}
        columns: Dict[int, Dict[int, Scalar]] = {}
        nrows = 0
        for n in source_indices(N):
            if all((n + s) in tindex for s in shifts):
                for m, c in op.apply_line(n).items():
                    col = columns.get(tindex[m])
                    if col is None:
                        columns[tindex[m]] = {nrows: c}
                    else:
                        col[nrows] = c
                nrows += 1
        return Matrix._raw(nrows, len(targets), columns)

    return _stabilize("cokernel", root_bound(op), target_indices, matrix)


def class_indices(residue: int, modulus: int) -> Callable[[int], List[int]]:
    """Index-window generator for one residue class mod `modulus`."""

    def indices(N: int) -> List[int]:
        return [n for n in range(-N, N + 1) if (n - residue) % modulus == 0]

    return indices
