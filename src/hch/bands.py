"""Band operators on Z-graded spaces and window-stabilized kernel/cokernel.

A band operator sends a graded line f_n to a finite sum of lines f_{n+s} with
coefficients polynomial in n.  Kernels are computed on growing windows with
no output truncation, so every reported kernel vector is a genuine global
kernel vector; cokernels are computed as kernels of the transposed operator
on the graded dual, i.e. as solution spaces of the adjoint linear recurrence.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .linalg import Matrix, add_into, kernel_basis
from .poly import Poly
from .reports import Stabilization
from .scalars import Scalar, as_scalar


class BandOp:
    """Sum over shifts s of (coefficient polynomial in n) * (shift by s)."""

    __slots__ = ("table",)

    def __init__(self, table: Optional[Dict[int, Poly]] = None):
        self.table: Dict[int, Poly] = {}
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
        """Image of f_n as a sparse {index: coefficient} map."""
        out = {}
        for s, p in self.table.items():
            c = p(n)
            if not c.is_zero():
                out[n + s] = c
        return out

    def windowed_matrix(self, source: Sequence[int]) -> Tuple[List[int], Matrix]:
        """Matrix from span{f_n : n in source} into the full (enlarged) image span.

        No output truncation: the target index list contains every index hit
        by the operator, so kernel vectors of this matrix are global kernel
        vectors supported on the source window.
        """
        targets = sorted({n + s for n in source for s in self.table})
        tindex = {n: i for i, n in enumerate(targets)}
        ents = {}
        for j, n in enumerate(source):
            for m, c in self.apply_line(n).items():
                ents[(tindex[m], j)] = c
        return targets, Matrix._raw(len(targets), len(source), ents)

    def __repr__(self):
        if not self.table:
            return "BandOp(0)"
        return "BandOp(" + ", ".join(f"{s:+d}: {p!r}" for s, p in sorted(self.table.items())) + ")"

    def to_json(self):
        return {str(s): p.to_json() for s, p in sorted(self.table.items())}

    @staticmethod
    def from_json(obj) -> "BandOp":
        return BandOp({int(s): Poly.from_json(p) for s, p in obj.items()})


class DegenerateBandError(ValueError):
    """Window dimensions keep growing: the input is not of Harish-Chandra type."""


class MaxWindowError(ValueError):
    """HCH_MAX_WINDOW is set to a value that is not an integer, or is below 1."""


class UncertifiedStabilizationError(RuntimeError):
    """Max window reached without two consecutive agreements."""

    def __init__(self, message, stabilization: Stabilization):
        super().__init__(message)
        self.stabilization = stabilization


DEFAULT_WINDOWS = (16, 24, 32, 48)


@dataclass(frozen=True)
class StabilizationPolicy:
    windows: Tuple[int, ...] = DEFAULT_WINDOWS

    def capped(self) -> Tuple[int, ...]:
        cap = os.environ.get("HCH_MAX_WINDOW")
        if cap is None:
            return self.windows
        try:
            cap = int(cap)
        except ValueError:
            raise MaxWindowError(f"HCH_MAX_WINDOW must be an integer, got {cap!r}") from None
        if cap < 1:
            raise MaxWindowError(f"HCH_MAX_WINDOW must be at least 1, got {cap}")
        kept = tuple(w for w in self.windows if w <= cap)
        return kept if kept else (cap,)


def _check_growth(dims: List[int]):
    if len(dims) >= 4 and dims[-1] > dims[-2] > dims[-3] > dims[-4]:
        raise DegenerateBandError(
            f"window dimensions keep growing {dims}; refusing to stabilize a degenerate input"
        )


def _stabilize(kind: str, policy: StabilizationPolicy,
               window: Callable[[int], Tuple[List[int], Matrix]]):
    """Kernel on growing windows until two consecutive dims agree.

    window(N) returns the indices of the matrix columns and the matrix for
    window N.  Returns (dim, representatives, Stabilization), with
    representatives built for the last window only.
    """
    windows = list(policy.capped())
    dims: List[int] = []
    for k, N in enumerate(windows):
        columns, mat = window(N)
        basis = kernel_basis(mat)
        dims.append(len(basis))
        _check_growth(dims)
        if k >= 1 and dims[-1] == dims[-2]:
            reps = [{n: c for n, c in zip(columns, v) if not c.is_zero()} for v in basis]
            return dims[-1], reps, Stabilization(windows[: k + 1], dims, True)
    raise UncertifiedStabilizationError(
        f"{kind} dims {dims} did not stabilize within windows {windows}",
        Stabilization(windows, dims, False),
    )


def band_kernel(op: BandOp, indices: Callable[[int], List[int]],
                policy: StabilizationPolicy = StabilizationPolicy()):
    """Stabilized kernel of a band operator restricted to the given index classes.

    indices(N) must return the source K-type indices inside the window |n| <= N.
    Returns (dim, representatives, Stabilization); raises
    UncertifiedStabilizationError when the window list is exhausted without two
    consecutive agreements.
    """
    def window(N):
        source = indices(N)
        return source, op.windowed_matrix(source)[1]

    return _stabilize("kernel", policy, window)


def band_cokernel(op: BandOp, source_indices: Callable[[int], List[int]],
                  target_indices: Callable[[int], List[int]],
                  policy: StabilizationPolicy = StabilizationPolicy()):
    """Stabilized cokernel dimension of a band operator.

    Computed as the kernel of the transposed operator on the graded dual: the
    solution space of the adjoint recurrence sum_s coeff_s(n) c_{n+s} = 0,
    tracked on growing windows.  Equations are imposed for every source index
    whose full stencil lies inside the window; free/constrained branch points
    (vanishing leading coefficients) are handled automatically because the
    equations are solved globally per window.
    """
    if op.is_zero():
        raise DegenerateBandError("cokernel of the zero band operator is not finite")
    shifts = op.shifts()

    def window(N):
        targets = target_indices(N)
        tindex = {n: i for i, n in enumerate(targets)}
        ents = {}
        nrows = 0
        for n in source_indices(N):
            if all((n + s) in tindex for s in shifts):
                for s in shifts:
                    c = op.coeff(s)(n)
                    if not c.is_zero():
                        ents[(nrows, tindex[n + s])] = c
                nrows += 1
        return targets, Matrix._raw(nrows, len(targets), ents)

    return _stabilize("cokernel", policy, window)


def class_indices(residue: int, modulus: int) -> Callable[[int], List[int]]:
    """Index-window generator for one residue class mod `modulus`."""

    def indices(N: int) -> List[int]:
        return [n for n in range(-N, N + 1) if (n - residue) % modulus == 0]

    return indices
