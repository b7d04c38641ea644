"""Lie algebras by structure constants, diagonalizable groups, and validated pairs.

A pair couples a Lie algebra g with a diagonalizable group K (torus x finite
abelian factors), an Ad-weight grading of the chosen g-basis, and an embedding
iota of the torus Lie algebra into g.  Validation checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, Optional, Sequence, Tuple

from .linalg import (Matrix, SparseVector, Vector, add_into, independent_over, inverse, rank,
                     sparse_columns, unit_vec, vec_is_zero)
from .scalars import ONE, ZERO, Scalar, as_scalar


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: Tuple[str, ...] = ()

    @staticmethod
    def good() -> "ValidationReport":
        return ValidationReport(True, ())

    @staticmethod
    def bad(*violations: str) -> "ValidationReport":
        return ValidationReport(False, tuple(violations))

    def __bool__(self):
        return self.ok


class LieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants.

    [x_j, x_k] = sum_l c[j][k][l] x_l; antisymmetry is enforced structurally
    by storing only j < k.
    """

    def __init__(self, dim: int, basis_labels: Optional[Sequence[str]] = None,
                 brackets: Optional[Dict[Tuple[int, int], Dict[int, Scalar]]] = None):
        self.dim = dim
        self.basis_labels = list(basis_labels) if basis_labels else [f"x{j}" for j in range(dim)]
        if len(self.basis_labels) != dim:
            raise ValueError("basis_labels length must equal dim")
        self._brackets: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        if brackets:
            for (j, k), comp in brackets.items():
                if not (0 <= j < dim and 0 <= k < dim):
                    raise IndexError("bracket index out of range")
                comp = {l: as_scalar(v) for l, v in comp.items() if not as_scalar(v).is_zero()}
                if not comp:
                    continue
                if j == k:
                    raise ValueError(f"bracket [x{j}, x{j}] must be zero")
                if j > k:
                    j, k, comp = k, j, {l: -v for l, v in comp.items()}
                if (j, k) in self._brackets:
                    raise ValueError(f"bracket [x{j}, x{k}] given in both orders")
                self._brackets[(j, k)] = comp

    def bracket_basis(self, j: int, k: int) -> Vector:
        out = [ZERO] * self.dim
        if j == k:
            return tuple(out)
        if j < k:
            for l, v in self._brackets.get((j, k), {}).items():
                out[l] = v
        else:
            for l, v in self._brackets.get((k, j), {}).items():
                out[l] = -v
        return tuple(out)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length must equal dim")
        out = [ZERO] * self.dim
        for j, a in enumerate(x):
            if a.is_zero():
                continue
            for k, b in enumerate(y):
                if b.is_zero():
                    continue
                for l, c in enumerate(self.bracket_basis(j, k)):
                    if not c.is_zero():
                        out[l] = out[l] + a * b * c
        return tuple(out)

    def ad(self, x: Vector) -> Matrix:
        """Matrix of ad(x) = [x, .] in the chosen basis."""
        cols = [self.bracket(x, unit_vec(self.dim, k)) for k in range(self.dim)]
        return Matrix.from_columns(cols, rows=self.dim)

    def check_jacobi(self) -> ValidationReport:
        bad = []
        for j in range(self.dim):
            for k in range(j + 1, self.dim):
                for l in range(k + 1, self.dim):
                    xj, xk, xl = (unit_vec(self.dim, m) for m in (j, k, l))
                    s = _vadd(
                        self.bracket(xj, self.bracket(xk, xl)),
                        self.bracket(xk, self.bracket(xl, xj)),
                        self.bracket(xl, self.bracket(xj, xk)),
                    )
                    if not vec_is_zero(s):
                        bad.append(f"Jacobi fails on basis triple ({j},{k},{l})")
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)

    def to_json(self):
        triples = []
        for (j, k), comp in sorted(self._brackets.items()):
            for l, v in sorted(comp.items()):
                triples.append([j, k, l, str(v.re), str(v.im)])
        return {"dim": self.dim, "basis_labels": self.basis_labels, "brackets": triples}


def _vadd(*vs: Vector) -> Vector:
    out = list(vs[0])
    for v in vs[1:]:
        for k, a in enumerate(v):
            out[k] = out[k] + a
    return tuple(out)


@dataclass(frozen=True)
class Character:
    """A character of a diagonalizable group: torus exponents + finite residues."""

    torus: Tuple[int, ...]
    finite: Tuple[int, ...]

    def is_zero(self) -> bool:
        return all(z == 0 for z in self.torus) and all(a == 0 for a in self.finite)

    def to_json(self):
        return {"torus": list(self.torus), "finite": list(self.finite)}


class DiagGroup:
    """Diagonalizable group: torus of given rank times finite cyclic factors.

    Finite invariants are restricted to divisors of 4 so that all character
    values stay inside Q(i).
    """

    def __init__(self, torus_rank: int = 0, finite_invariants: Sequence[int] = ()):
        if torus_rank < 0:
            raise ValueError("torus_rank must be nonnegative")
        for n in finite_invariants:
            if n not in (1, 2, 4):
                raise ValueError(f"finite invariant {n} not a divisor of 4; characters leave Q(i)")
        self.torus_rank = torus_rank
        self.finite_invariants = tuple(finite_invariants)

    def character(self, torus: Sequence[int] = (), finite: Sequence[int] = ()) -> Character:
        torus = tuple(int(z) for z in torus)
        finite = tuple(int(a) for a in finite)
        if len(torus) != self.torus_rank or len(finite) != len(self.finite_invariants):
            raise ValueError("character shape does not match group")
        finite = tuple(a % n for a, n in zip(finite, self.finite_invariants))
        return Character(torus, finite)

    def zero_char(self) -> Character:
        return Character((0,) * self.torus_rank, (0,) * len(self.finite_invariants))

    def add(self, a: Character, b: Character) -> Character:
        """Sum of two characters of this group (not re-validated)."""
        return Character(
            tuple(x + y for x, y in zip(a.torus, b.torus)),
            tuple((x + y) % n for x, y, n in zip(a.finite, b.finite, self.finite_invariants)),
        )

    def neg(self, a: Character) -> Character:
        """Inverse of a character of this group (not re-validated)."""
        return Character(
            tuple(-x for x in a.torus),
            tuple(-x % n for x, n in zip(a.finite, self.finite_invariants)),
        )

    def __eq__(self, other):
        if not isinstance(other, DiagGroup):
            return NotImplemented
        return (self.torus_rank, self.finite_invariants) == (other.torus_rank, other.finite_invariants)

    def __repr__(self):
        return f"DiagGroup(torus_rank={self.torus_rank}, finite={list(self.finite_invariants)})"

    def to_json(self):
        return {"torus_rank": self.torus_rank, "finite_invariants": list(self.finite_invariants)}


class Pair:
    """A Harish-Chandra pair (g, K) with K diagonalizable.

    ad_grading gives the K-weight of each g-basis vector; iota embeds the
    torus Lie algebra into g (one column per torus generator).
    """

    def __init__(self, g: LieAlgebra, K: DiagGroup, ad_grading: Sequence[Character],
                 iota: Optional[Matrix] = None):
        self.g = g
        self.K = K
        self.ad_grading = list(ad_grading)
        if len(self.ad_grading) != g.dim:
            raise ValueError("ad_grading must assign a character to every basis vector")
        if iota is None:
            iota = Matrix.zeros(g.dim, K.torus_rank)
        if (iota.rows, iota.cols) != (g.dim, K.torus_rank):
            raise ValueError("iota must be dim(g) x torus_rank")
        self.iota = iota

    def iota_vec(self, t: int) -> Vector:
        return self.iota.column(t)

    @cached_property
    def complement(self) -> Tuple[Tuple[int, ...], Matrix, Dict[Tuple[int, int], SparseVector]]:
        """(chosen, projection, brackets): a K-stable complement p of the torus image in g.

        p is spanned by the g-basis vectors ``chosen`` (ascending): all basis
        vectors of nonzero weight, plus the first weight-zero ones completing
        the torus image.  Any K-stable choice gives the same relative homology;
        this one is reproducible.  ``projection`` is P: g -> p in the chosen
        basis, and ``brackets[(a, b)]``, for a < b, is P[x_chosen[a], x_chosen[b]]
        as a {p-basis index: Scalar} map.  Derived on first use, kept by the pair.
        """
        return _complement(self)

    def validate(self) -> ValidationReport:
        bad = []
        rep = self.g.check_jacobi()
        if not rep:
            bad.extend(rep.violations)
        for j, ch in enumerate(self.ad_grading):
            if len(ch.torus) != self.K.torus_rank or len(ch.finite) != len(self.K.finite_invariants):
                bad.append(f"ad_grading[{j}] has wrong shape for K")
                return ValidationReport.bad(*bad)
        if self.K.torus_rank > 0 and rank(self.iota) != self.K.torus_rank:
            bad.append("iota is not injective")
        for t in range(self.K.torus_rank):
            col = self.iota_vec(t)
            for j, a in enumerate(col):
                if not a.is_zero() and not self.ad_grading[j].is_zero():
                    bad.append(f"iota(xi_{t}) has a component of nonzero Ad-weight at basis {j}")
                    break
        # derived action: ad(iota(xi_t)) must be diagonal with the declared weights
        for t in range(self.K.torus_rank):
            admat = self.g.ad(self.iota_vec(t))
            for j in range(self.g.dim):
                expected = as_scalar(self.ad_grading[j].torus[t])
                col = admat.column(j)
                want = tuple(expected if k == j else ZERO for k in range(self.g.dim))
                if col != want:
                    bad.append(f"(dAd)(xi_{t}) != ad(iota(xi_{t})) on basis vector {j}")
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)

    def to_json(self):
        return {
            "g": self.g.to_json(),
            "K": self.K.to_json(),
            "ad_grading": [ch.to_json() for ch in self.ad_grading],
            "iota": self.iota.to_json(),
        }


def _complement(pair: Pair):
    """Raises if the weight-zero basis vectors fail to complete the torus image."""
    g, zero, tr = pair.g, pair.K.zero_char(), pair.K.torus_rank
    weight_zero = [{j: ONE} for j in range(g.dim) if pair.ad_grading[j] == zero]
    completing = {j for v in independent_over(pair.iota, weight_zero) for j in v}
    chosen = tuple(j for j in range(g.dim) if pair.ad_grading[j] != zero or j in completing)
    if tr + len(chosen) != g.dim:
        raise ValueError("complement of the torus image is not K-stable")
    basis = sparse_columns(pair.iota) + [{j: ONE} for j in chosen]
    inv = inverse(Matrix._from_sparse_columns(g.dim, basis))
    projection = Matrix._raw(len(chosen), g.dim,
                             {(r - tr, c): v for (r, c), v in inv.entries.items() if r >= tr})
    columns = sparse_columns(projection)
    brackets = {}
    for a, b in combinations(range(len(chosen)), 2):
        br: SparseVector = {}
        for l, c in g._brackets.get((chosen[a], chosen[b]), {}).items():
            for r, v in columns[l].items():
                add_into(br, r, c * v)
        brackets[(a, b)] = dict(sorted(br.items()))
    return chosen, projection, brackets


class CharacterRestriction:
    """The restriction map on characters dual to an inclusion K^H -> K.

    torus_map: (small torus rank) x (big torus rank) integer matrix; big torus
    exponents z restrict to torus_map @ z.  finite_map has one integer row per
    finite factor of the small group, applied to the concatenation of big
    torus exponents and big finite residues, reduced mod the small invariant.
    """

    def __init__(self, big: DiagGroup, small: DiagGroup,
                 torus_map: Sequence[Sequence[int]] = (),
                 finite_map: Sequence[Sequence[int]] = ()):
        self.big = big
        self.small = small
        self.torus_map = [list(row) for row in torus_map]
        self.finite_map = [list(row) for row in finite_map]
        if len(self.torus_map) != small.torus_rank:
            raise ValueError("torus_map must have one row per small torus generator")
        for row in self.torus_map:
            if len(row) != big.torus_rank:
                raise ValueError("torus_map row length must equal big torus rank")
        if len(self.finite_map) != len(small.finite_invariants):
            raise ValueError("finite_map must have one row per small finite factor")
        width = big.torus_rank + len(big.finite_invariants)
        for row in self.finite_map:
            if len(row) != width:
                raise ValueError("finite_map rows act on big torus exponents + finite residues")

    def restrict(self, ch: Character) -> Character:
        torus = [sum(a * z for a, z in zip(row, ch.torus)) for row in self.torus_map]
        mixed = list(ch.torus) + list(ch.finite)
        finite = [sum(a * m for a, m in zip(row, mixed)) for row in self.finite_map]
        return self.small.character(torus, finite)

    def torus_embedding(self) -> Matrix:
        """Matrix of the dual inclusion Lie(T_H) -> Lie(T_K)."""
        ents = {}
        for i, row in enumerate(self.torus_map):
            for j, a in enumerate(row):
                if a:
                    ents[(j, i)] = as_scalar(a)
        return Matrix._raw(self.big.torus_rank, self.small.torus_rank, ents)

    @staticmethod
    def identity(K: DiagGroup) -> "CharacterRestriction":
        tm = [[1 if i == j else 0 for j in range(K.torus_rank)] for i in range(K.torus_rank)]
        width = K.torus_rank + len(K.finite_invariants)
        fm = [[1 if j == K.torus_rank + i else 0 for j in range(width)]
              for i in range(len(K.finite_invariants))]
        return CharacterRestriction(K, K, tm, fm)

    def to_json(self):
        return {"torus_map": self.torus_map, "finite_map": self.finite_map}


class SubpairEmbedding:
    """A subpair (h, K^H) of a pair (g, K): algebra embedding + character restriction."""

    def __init__(self, small: Pair, big: Pair, alg_embed: Matrix, grp_embed: CharacterRestriction):
        if (alg_embed.rows, alg_embed.cols) != (big.g.dim, small.g.dim):
            raise ValueError("alg_embed must be dim(g) x dim(h)")
        if grp_embed.big != big.K or grp_embed.small != small.K:
            raise ValueError("grp_embed groups do not match the pairs")
        self.small = small
        self.big = big
        self.alg_embed = alg_embed
        self.grp_embed = grp_embed

    def embed(self, x: Vector) -> Vector:
        return self.alg_embed.apply(x)

    def validate(self) -> ValidationReport:
        bad = []
        if rank(self.alg_embed) != self.small.g.dim:
            bad.append("alg_embed is not injective")
        # bracket preservation
        for j in range(self.small.g.dim):
            for k in range(j + 1, self.small.g.dim):
                lhs = self.big.g.bracket(self.embed(unit_vec(self.small.g.dim, j)),
                                         self.embed(unit_vec(self.small.g.dim, k)))
                rhs = self.embed(self.small.g.bracket_basis(j, k))
                if lhs != rhs:
                    bad.append(f"alg_embed does not preserve bracket on basis pair ({j},{k})")
        # iota compatibility: embedding of small torus generators matches big iota
        if self.small.K.torus_rank > 0:
            lhs = self.alg_embed @ self.small.iota
            rhs = self.big.iota @ self.grp_embed.torus_embedding()
            if lhs != rhs:
                bad.append("iota maps are incompatible with the torus embedding")
        # weight compatibility: components of an embedded weight vector restrict correctly
        for j in range(self.small.g.dim):
            want = self.small.ad_grading[j]
            img = self.embed(unit_vec(self.small.g.dim, j))
            for idx, a in enumerate(img):
                if a.is_zero():
                    continue
                got = self.grp_embed.restrict(self.big.ad_grading[idx])
                if got != want:
                    bad.append(
                        f"grading mismatch: h-basis {j} declares weight {want} but its image "
                        f"meets big-basis {idx} restricting to {got}"
                    )
        return ValidationReport.good() if not bad else ValidationReport.bad(*bad)

    @staticmethod
    def identity(P: Pair) -> "SubpairEmbedding":
        return SubpairEmbedding(P, P, Matrix.identity(P.g.dim), CharacterRestriction.identity(P.K))

    def to_json(self):
        return {
            "small": self.small.to_json(),
            "big": self.big.to_json(),
            "alg_embed": self.alg_embed.to_json(),
            "grp_embed": self.grp_embed.to_json(),
        }
