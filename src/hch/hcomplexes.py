"""h-complexes: complexes of weak modules with a degree -1 contraction family.

The contraction i_xi (one per torus generator of K) must be K-equivariant,
commute with the g-action, anticommute with itself, and satisfy the homotopy
identity d i_xi + i_xi d = w(xi).  Cohomologies of such a complex carry a
genuine module structure, which is verified degreewise.  h_tensor and h_cone
build their contractions with the Leibniz loop and the cone block of
``complexes``, the same code that builds the differentials.
"""

from __future__ import annotations

from typing import Dict, List

from . import signs
from .complexes import Complex, ComplexMap, TensorLayout, cone, cone_matrix, tensor_complex
from .liepairs import ValidationReport
from .linalg import Matrix, independent_over, kernel_on, sparse_columns, vanishes


class HComplex:
    """A Complex plus contraction maps i[t][n]: term n -> term n-1."""

    def __init__(self, base: Complex, i_maps: Dict[int, Dict[int, Matrix]]):
        self.base = base
        self.i_maps: Dict[int, Dict[int, Matrix]] = {}
        for t in range(base.pair.K.torus_rank):
            per = {}
            for n, m in (i_maps.get(t) or {}).items():
                if m.rows == 0 or m.cols == 0:
                    continue
                if m.cols != base.dim_at(n) or m.rows != base.dim_at(n - 1):
                    raise ValueError(f"i-map shape mismatch at degree {n}")
                per[n] = m
            self.i_maps[t] = per

    def i_at(self, t: int, n: int) -> Matrix:
        m = self.i_maps.get(t, {}).get(n)
        if m is not None:
            return m
        return Matrix.zeros(self.base.dim_at(n - 1), self.base.dim_at(n))

    def degrees(self) -> List[int]:
        return self.base.degrees()


def check_h_axioms(h: HComplex) -> ValidationReport:
    """All four contraction axioms plus d^2 = 0.

    On complexes carrying interior marks, identities (ii)-(iv) are asserted on
    the interior columns only.  Each degree restricts the differential, the
    term's g-action, every i-map and the defect (``defect(cols)``) to those
    columns once, and the three identities share them.  Each identity is one
    ``linalg.vanishes`` of its terms, the defect's own terms included
    (``DefectMap.terms``), so no product and no defect matrix is formed.
    Axiom (i), that i_xi preserves K-weights, is still checked on every i-map
    entry.  The report lists every failure with its axiom, degree and
    generator, after the d^2 failures of the complex's verdict
    (``Complex.check_complex``).
    """
    base = h.base
    pair = base.pair
    trank = pair.K.torus_rank
    if not trank:
        # with no torus generator there is no contraction, and d^2 = 0 is all
        return base.check_complex()
    bad = list(base.check_complex().violations)
    for n in base.degrees():
        cols = base.interior_cols(n)
        tn = base.term(n)
        tprev = base.term(n - 1)
        d_prev = base.diff(n - 1)
        d_r = base.interior_diff(n)
        act_r = [a.restrict_columns(cols) for a in tn.g_action]
        i_r = [h.i_at(t, n).restrict_columns(cols) for t in range(trank)]
        defect = tn.defect(cols)
        for t in range(trank):
            i_m = h.i_at(t, n)
            # (i) K-equivariance: i_xi preserves weights (builders share weight
            # objects, so most pairs are equal by identity)
            wprev, w = tprev.k_weights, tn.k_weights
            if any(wprev[r] is not w[c] and wprev[r] != w[c]
                   for c, col in i_m.columns.items() for r in col):
                bad.append(f"axiom i: i_xi{t} mixes K-weights at degree {n}")
            # (ii) commutes with the g-action
            for j in range(pair.g.dim):
                if not vanishes((1, tprev.g_action[j], i_r[t]), (-1, i_m, act_r[j])):
                    bad.append(f"axiom ii: i_xi{t} vs g-basis {j} at degree {n}")
            # (iii) anticommutation; at s == t the sum is twice i_xi{t}^2, zero iff it is
            for s in range(t, trank):
                anti = [(1, h.i_at(s, n - 1), i_r[t])]
                if s != t:
                    anti.append((1, h.i_at(t, n - 1), i_r[s]))
                if not vanishes(*anti):
                    bad.append(f"axiom iii: i_xi{t} i_xi{s} + i_xi{s} i_xi{t} != 0 at degree {n}")
            # (iv) homotopy identity d i + i d = w
            minus_w = [(-a, m) for a, m in defect.terms(t)]
            if not vanishes((1, d_prev, i_r[t]), (1, h.i_at(t, n + 1), d_r), *minus_w):
                bad.append(f"axiom iv: d i + i d != w for xi{t} at degree {n}")
    return ValidationReport.good() if not bad else ValidationReport.bad(*bad)


def h_cohomology_modules(h: HComplex) -> ValidationReport:
    """Check the induced defect vanishes on cohomology: w(xi) ker d ⊆ im d."""
    base = h.base
    bad = []
    for n in base.degrees():
        d = base.diff(n)
        z = Matrix._from_sparse_columns(d.cols, kernel_on(d, range(d.cols)))
        for t, w in enumerate(base.term(n).defect().maps):
            if independent_over(base.diff(n - 1), sparse_columns(w @ z)):
                bad.append(f"defect of xi{t} does not vanish on H^{n}")
    return ValidationReport.good() if not bad else ValidationReport.bad(*bad)


def h_shift(h: HComplex, k: int = 1) -> HComplex:
    base = h.base.shift(k)
    sgn = signs.shift_contraction_sign(k)
    i_maps: Dict[int, Dict[int, Matrix]] = {}
    for t, per in h.i_maps.items():
        i_maps[t] = {n - k: (m if sgn == 1 else -m) for n, m in per.items()}
    return HComplex(base, i_maps)


class HComplexMap(ComplexMap):
    """Chain map between the bases of two h-complexes, commuting with i."""

    def __init__(self, source: HComplex, target: HComplex, maps: Dict[int, Matrix]):
        super().__init__(source.base, target.base, maps)
        self.hsource = source
        self.htarget = target

    def validate(self) -> ValidationReport:
        rep = super().validate()
        bad = list(rep.violations)
        for t in range(self.source.pair.K.torus_rank):
            for n in self.source.degrees():
                if not vanishes((1, self.htarget.i_at(t, n), self.at(n)),
                                (-1, self.at(n - 1), self.hsource.i_at(t, n))):
                    bad.append(f"map does not commute with i_xi{t} at degree {n}")
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)

    @staticmethod
    def identity_h(h: HComplex) -> "HComplexMap":
        return HComplexMap(h, h, {n: Matrix.identity(h.base.dim_at(n))
                                  for n in h.degrees()})


def h_cone(f: HComplexMap) -> HComplex:
    """Cone of an h-map; i(m, x) = (-i_M m, i_N x) on Cone^n = M^{n+1} (+) N^n.

    ``cone(f)`` validates f, i-compatibility included, through ``HComplexMap.validate``.
    """
    M, N = f.hsource, f.htarget
    base, _, _ = cone(f)
    sgn = signs.cone_contraction_shifted_sign()
    i_maps: Dict[int, Dict[int, Matrix]] = {}
    for t in range(base.pair.K.torus_rank):
        mt, nt = M.i_maps[t], N.i_maps[t]
        per = {}
        for n in base.degrees():
            rows = M.base.dim_at(n) + N.base.dim_at(n - 1)
            m = cone_matrix(rows, base.dim_at(n), M.base.dim_at(n), M.base.dim_at(n + 1),
                            mt.get(n + 1), sgn, None, nt.get(n))
            if not m.is_zero():
                per[n] = m
        i_maps[t] = per
    return HComplex(base, i_maps)


def h_tensor(a: HComplex, b: HComplex) -> HComplex:
    """a (x) b with i = i_a (x) 1 + tensor_contraction_right_sign(p) 1 (x) i_b.

    The contraction runs through the same Leibniz loop as the differential
    of tensor_complex, one degree down.
    """
    base = tensor_complex(a.base, b.base)
    lay = TensorLayout(a.base, b.base)
    i_maps = {t: lay.leibniz(a.i_maps[t], b.i_maps[t], -1, signs.tensor_contraction_right_sign)
              for t in range(base.pair.K.torus_rank)}
    return HComplex(base, i_maps)


def zero_contraction(base: Complex) -> HComplex:
    """Any complex of genuine modules is an h-complex with i = 0."""
    return HComplex(base, {})
