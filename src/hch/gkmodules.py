"""Modules over a pair (g, K): finite matrix models and banded K-type models.

A finite module stores one action matrix per g-basis element plus a K-weight
per module basis vector.  Weak modules are allowed: the defect w(xi), the
difference between the declared torus weights and the action of iota(xi),
is computed rather than assumed zero.

A band module keeps one ``BandOp`` per g-basis element: its bracket
identities, defect and Casimir certificate are identities of band operators.
Its finite windows are ``BandOp.windowed_matrix``, which the kernels of
``bands`` read; it has no JSON form, since ``schemas`` reads finite modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bands import BandOp
from .liepairs import Character, Pair, SubpairEmbedding, ValidationReport, check_element, same_pair
from .linalg import Matrix, SparseVector, add_into, rank, vanishes
from .poly import Poly
from .scalars import ONE, Scalar, as_scalar


class FiniteModule:
    """Finite-dimensional weak (g, K)-module over a pair."""

    def __init__(self, pair: Pair, k_weights: Sequence[Character], g_action: Sequence[Matrix]):
        self.pair = pair
        self.k_weights = list(k_weights)
        self.g_action = list(g_action)
        self.dim = len(self.k_weights)
        if len(self.g_action) != pair.g.dim:
            raise ValueError("need one action matrix per g-basis element")
        for m in self.g_action:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise ValueError("action matrix shape mismatch")

    def action_matrix(self, x: SparseVector) -> Matrix:
        """rho(x) for a sparse g-element x."""
        check_element(x, len(self.g_action))
        out = Matrix.zeros(self.dim, self.dim)
        for j, a in x.items():
            out = out + self.g_action[j].scale(a)
        return out

    def validate(self) -> ValidationReport:
        """The bracket is represented, rho(x_j) rho(x_k) - rho(x_k) rho(x_j) -
        rho([x_j, x_k]) = 0 (``linalg.vanishes``), and each action shifts
        weights by its Ad-weight, with the shifted weight summed once per
        column."""
        bad = []
        g, act = self.pair.g, self.g_action
        for j in range(g.dim):
            for k in range(j + 1, g.dim):
                bracket = [(-a, act[l]) for l, a in g.bracket_basis(j, k).items()]
                if not vanishes((1, act[j], act[k]), (-1, act[k], act[j]), *bracket):
                    bad.append(f"bracket representation fails on g-basis pair ({j},{k})")
        K, weights = self.pair.K, self.k_weights
        for j in range(g.dim):
            shift = self.pair.ad_grading[j]
            for c, col in act[j].columns.items():
                want = K.add(weights[c], shift)
                for r in col:
                    if weights[r] != want:
                        bad.append(f"action of g-basis {j} is not K-equivariant at entry ({r},{c})")
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)

    def torus_weight_matrix(self, t: int, cols: Optional[Sequence[int]] = None) -> Matrix:
        """d(rho)(xi_t) on the columns ``cols`` (every column by default), in
        that order: the t-th torus exponents on the diagonal, with one Scalar
        per distinct exponent."""
        cols = range(self.dim) if cols is None else cols
        weights = self.k_weights
        scalars: Dict[int, Scalar] = {}
        columns: Dict[int, SparseVector] = {}
        for j, c in enumerate(cols):
            z = weights[c].torus[t]
            if z:
                s = scalars.get(z)
                if s is None:
                    s = scalars[z] = as_scalar(z)
                columns[j] = {c: s}
        return Matrix._raw(self.dim, len(cols), columns)

    def defect(self, cols: Optional[Sequence[int]] = None) -> "DefectMap":
        """w(xi_t) = d(rho)(xi_t) - rho(iota(xi_t)) for each torus generator t,
        on the columns ``cols`` (every column by default), in that order."""
        return DefectMap(self, None if cols is None else list(cols))

    def is_genuine(self) -> bool:
        return all(m.is_zero() for m in self.defect().maps)

    def to_json(self):
        return {
            "k_weights": [ch.to_json() for ch in self.k_weights],
            "g_action": [m.to_json() for m in self.g_action],
        }


@dataclass
class DefectMap:
    """w(xi) = d(rho)(xi) - rho(iota(xi)) for each torus generator.

    ``cols`` is None for the square defect on every column; otherwise the
    maps hold only those columns, in that order.  ``terms(t)`` is w(xi_t) as
    the terms of a sum, which ``linalg.vanishes`` reads without forming it;
    ``maps`` sums them, on the first read.
    """

    module: FiniteModule
    cols: Optional[List[int]] = None

    def terms(self, t: int) -> List[Tuple[Scalar, Matrix]]:
        """(coefficient, matrix) terms of w(xi_t): the torus weights on
        ``cols``, and -a times the action of every g-basis vector with
        coefficient a in iota(xi_t), picked on ``cols`` first, so the work is
        that of the chosen columns, not of the whole square."""
        m, cols = self.module, self.cols
        out = [(ONE, m.torus_weight_matrix(t, cols))]
        for l, a in m.pair.iota_vec(t).items():
            rho = m.g_action[l]
            out.append((-a, rho if cols is None else rho.restrict_columns(cols)))
        return out

    @cached_property
    def maps(self) -> List[Matrix]:
        """w(xi_t) for each torus generator t, summed from ``terms(t)``."""
        out = []
        for t in range(self.module.pair.K.torus_rank):
            (_, w), *rest = self.terms(t)
            for a, rho in rest:
                w = w + rho.scale(a)
            out.append(w)
        return out

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.maps)

    def commutes_with_action(self) -> bool:
        """w(xi) rho(x) = rho(x) w(xi) for every g-basis x; needs the square defect."""
        if self.cols is not None:
            raise ValueError("commutes_with_action needs the defect on every column")
        return all(vanishes((1, w, rho), (-1, rho, w))
                   for w in self.maps for rho in self.module.g_action)


def trivial_module(pair: Pair) -> FiniteModule:
    return FiniteModule(pair, [pair.K.zero_char()],
                        [Matrix.zeros(1, 1) for _ in range(pair.g.dim)])


def direct_sum(m: FiniteModule, n: FiniteModule) -> FiniteModule:
    if not same_pair(m.pair, n.pair):
        raise ValueError("direct sum needs modules over the same pair")
    return FiniteModule(
        m.pair,
        m.k_weights + n.k_weights,
        [Matrix.block_diag([a, b]) for a, b in zip(m.g_action, n.g_action)],
    )


def _add_shifted(columns: Dict[int, SparseVector], c: int, old: SparseVector, shift: int,
                 pairs: Iterable[Tuple[int, Scalar]]) -> None:
    """Add the entries (r + shift, v) into column c, already placed as ``old``."""
    for r, v in pairs:
        r += shift
        if r in old:
            add_into(old, r, v)
        else:
            old[r] = v
    if not old:
        del columns[c]


def kron_into(columns: Dict[int, SparseVector], a: "Matrix | int", b: "Matrix | int",
              roff: int = 0, coff: int = 0, negate: bool = False) -> None:
    """Add (-1 if negate) * (a (x) b) into the column map ``columns`` at offset (roff, coff).

    The one placer behind every tensor, Leibniz, Hom and cone block.  An int n
    stands for I_n, whose ones are placed, never built or multiplied; the
    sign goes on one factor once.  A new column is one fresh dict, filled by
    a plain loop (at one or two entries a column, cheaper than a dict
    comprehension on CPython 3.11); a column already placed is summed into in
    place, so ``columns`` holds only columns its builder made.
    """
    get = columns.get
    if isinstance(b, int):
        # a (x) I_b: column c1 * b + k holds a's column c1 at rows r1 * b + k;
        # an int a is I_a, whose column c1 is the one row c1
        if isinstance(a, int):
            one = -ONE if negate else ONE
            acols = ((c1, {c1: one}) for c1 in range(a))
        else:
            acols = (-a if negate else a).columns.items()
        for c1, acol in acols:
            c0 = coff + c1 * b
            rows = [(roff + r1 * b, v) for r1, v in acol.items()]
            for k in range(b):
                old = get(c0 + k)
                if old is None:
                    columns[c0 + k] = new = {}
                    for r, v in rows:
                        new[r + k] = v
                else:
                    _add_shifted(columns, c0 + k, old, k, rows)
        return
    bcols, br, bc = (-b if negate else b).columns, b.rows, b.cols
    if isinstance(a, int):
        # I_a (x) b: b's columns once per diagonal block k
        for k in range(a):
            r0, c0 = roff + k * br, coff + k * bc
            for c2, bcol in bcols.items():
                old = get(c0 + c2)
                if old is None:
                    columns[c0 + c2] = new = {}
                    for r2, v in bcol.items():
                        new[r0 + r2] = v
                else:
                    _add_shifted(columns, c0 + c2, old, r0, bcol.items())
        return
    for c1, acol in a.columns.items():
        for c2, bcol in bcols.items():
            c = coff + c1 * bc + c2
            new = {roff + r1 * br + r2: v1 * v2 for r1, v1 in acol.items() for r2, v2 in bcol.items()}
            old = get(c)
            if old is None:
                columns[c] = new
            else:
                _add_shifted(columns, c, old, 0, new.items())


def kron(a: Matrix, b: Matrix) -> Matrix:
    columns: Dict[int, SparseVector] = {}
    kron_into(columns, a, b)
    return Matrix._raw(a.rows * b.rows, a.cols * b.cols, columns)


def tensor_into(weights: List[Character], action: List[Dict], m: FiniteModule,
                n: FiniteModule, off: int) -> None:
    """Append the weights of m (x) n and add its Leibniz g-action x (x) 1 + 1 (x) x
    into the column maps of action at diagonal offset off.

    The weight row a + n.k_weights is summed once per distinct weight a of m.
    """
    add = m.pair.K.add
    rows: Dict[Character, List[Character]] = {}
    for a in m.k_weights:
        row = rows.get(a)
        if row is None:
            row = rows[a] = [add(a, b) for b in n.k_weights]
        weights.extend(row)
    for ents, am, an in zip(action, m.g_action, n.g_action):
        kron_into(ents, am, n.dim, off, off)
        kron_into(ents, m.dim, an, off, off)


def tensor(m: FiniteModule, n: FiniteModule) -> FiniteModule:
    """Tensor product: weights add, g acts by the Leibniz rule."""
    weights: List[Character] = []
    action: List[Dict] = [{} for _ in m.g_action]
    tensor_into(weights, action, m, n, 0)
    d = len(weights)
    return FiniteModule(m.pair, weights, [Matrix._raw(d, d, e) for e in action])


def contragredient(m: FiniteModule) -> FiniteModule:
    K = m.pair.K
    return FiniteModule(
        m.pair,
        [K.neg(ch) for ch in m.k_weights],
        [-rho.transpose() for rho in m.g_action],
    )


def restrict_module(emb: SubpairEmbedding, m: FiniteModule) -> FiniteModule:
    """Restrict a module over emb.big to the small pair along the embedding."""
    if not same_pair(m.pair, emb.big):
        raise ValueError("module is not over the big pair of the embedding")
    weights = [emb.grp_embed.restrict(ch) for ch in m.k_weights]
    action = [m.action_matrix(emb.embed({j: ONE})) for j in range(emb.small.g.dim)]
    return FiniteModule(emb.small, weights, action)


# -- local Z(g)-finiteness certificate (sl2 Casimir) ---------------------------


class UnsupportedAlgebraError(ValueError):
    """The Casimir certificate only knows sl2 triples."""


def _find_sl2_triple(pair: Pair) -> Tuple[SparseVector, SparseVector, SparseVector]:
    """Locate a standard (e, h, f) triple among the basis, by label.

    Accepts the plain sl2 labels e/h/f and the weight-adapted labels
    u+/k0/u- (where (u+/2, k0, u-/2) is a standard triple).
    """
    labels = pair.g.basis_labels
    if set(labels) >= {"e", "h", "f"}:
        e, h, f = ({labels.index(x): ONE} for x in "ehf")
    elif set(labels) >= {"u+", "k0", "u-"}:
        half = Scalar(1) / Scalar(2)
        e, h, f = ({labels.index(x): c} for x, c in (("u+", half), ("k0", ONE), ("u-", half)))
    else:
        raise UnsupportedAlgebraError(
            f"no sl2 triple found among basis labels {labels}"
        )
    g = pair.g
    two_e = {l: Scalar(2) * a for l, a in e.items()}
    neg_two_f = {l: Scalar(-2) * a for l, a in f.items()}
    if (g.bracket(h, e) != two_e or g.bracket(h, f) != neg_two_f
            or g.bracket(e, f) != h):
        raise UnsupportedAlgebraError("labeled triple does not satisfy the sl2 relations")
    return e, h, f


def casimir_matrix(m: FiniteModule) -> Matrix:
    """Omega = ef + fe + h^2/2 in the module's matrix representation."""
    e, h, f = _find_sl2_triple(m.pair)
    re, rh, rf = (m.action_matrix(x) for x in (e, h, f))
    return re @ rf + rf @ re + (rh @ rh).scale(Scalar("1/2"))


@dataclass
class CasimirReport:
    ok: bool
    eigenvalues: List[Scalar]
    detail: str = ""


def check_hc(m: "FiniteModule | BandModule") -> CasimirReport:
    """Certify local center-finiteness by exhibiting the Casimir spectrum.

    Candidate eigenvalues come from the torus weights: a weight-w vector can
    only meet eigenvalue w'(w'+2)/2 for some |w'| drawn from the weight
    support.  The certificate is that eigenspace dimensions sum to dim.
    """
    if isinstance(m, BandModule):
        return m.check_casimir()
    omega = casimir_matrix(m)
    cands = sorted({abs(ch.torus[t]) for ch in m.k_weights
                    for t in range(m.pair.K.torus_rank)} | {0})
    eigen = []
    total = 0
    ident = Matrix.identity(m.dim)
    for w in cands:
        c = as_scalar(w) * as_scalar(w + 2) / Scalar(2)
        dim = m.dim - rank(omega - ident.scale(c))
        if dim:
            eigen.append(c)
            total += dim
    if total == m.dim:
        return CasimirReport(True, eigen)
    return CasimirReport(False, eigen,
                         f"eigenspaces cover {total} of {m.dim} dimensions")


# -- banded K-type models ------------------------------------------------------


class BandModule:
    """Z-indexed multiplicity-one K-type tower with banded g-action.

    K-types are indexed by n with n = parity (mod 2); the n-th line has torus
    weight n.  Each g-basis element of Ad-weight s acts by a single band of
    shift s with coefficient polynomial in n.
    """

    def __init__(self, pair: Pair, parity: int, band_ops: Sequence[BandOp]):
        if pair.K.torus_rank != 1:
            raise ValueError("band modules require a rank-1 torus")
        self.pair = pair
        self.parity = parity % 2
        self.band_ops = list(band_ops)
        if len(self.band_ops) != pair.g.dim:
            raise ValueError("need one band operator per g-basis element")

    def validate(self) -> ValidationReport:
        bad = []
        for j, op in enumerate(self.band_ops):
            s = self.pair.ad_grading[j].torus[0]
            extra = [t for t in op.shifts() if t != s]
            if extra:
                bad.append(f"operator of g-basis {j} has shifts {extra} besides its weight {s}")
        g = self.pair.g
        for j in range(g.dim):
            for k in range(j + 1, g.dim):
                lhs = self.band_ops[j].commutator(self.band_ops[k])
                if lhs != self.act_vector(g.bracket_basis(j, k)):
                    bad.append(f"bracket identity fails on g-basis pair ({j},{k})")
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)

    def defect_band(self) -> BandOp:
        """w(xi) for the torus generator, as a band operator."""
        return BandOp({0: Poly.x()}) - self.act_vector(self.pair.iota_vec(0))

    def is_genuine(self) -> bool:
        return self.defect_band().is_zero()

    def act_vector(self, x: SparseVector) -> BandOp:
        check_element(x, len(self.band_ops))
        out = BandOp()
        for j, a in x.items():
            out = out + self.band_ops[j].scale(a)
        return out

    def check_casimir(self) -> CasimirReport:
        e, h, f = _find_sl2_triple(self.pair)
        be, bh, bf = (self.act_vector(x) for x in (e, h, f))
        omega = be.compose(bf) + bf.compose(be) + bh.compose(bh).scale(Scalar("1/2"))
        if omega.shifts() not in ([], [0]):
            return CasimirReport(False, [], f"Casimir has off-diagonal shifts {omega.shifts()}")
        p = omega.coeff(0)
        if p.degree > 0:
            return CasimirReport(False, [], f"Casimir coefficient {p!r} is not constant in n")
        val = p(0)
        return CasimirReport(True, [val])
