"""PBW monomials in a fixed basis order, with exact straightening.

A monomial is an exponent tuple (a_0, ..., a_{d-1}) standing for
x_0^{a_0} x_1^{a_1} ... in the declared basis order; an element is a sparse
dict monomial -> Scalar.  Products are straightened with the structure
constants, so everything stays inside the filtered basis.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .liepairs import LieAlgebra
from .linalg import add_into
from .scalars import ONE, Scalar

Mono = Tuple[int, ...]
Element = Dict[Mono, Scalar]


def degree(m: Mono) -> int:
    return sum(m)


class PBW:
    """Multiplication in U(g) on the ordered-monomial basis."""

    def __init__(self, g: LieAlgebra):
        self.g = g
        self._mono_gen: Dict[Tuple[Mono, int], Element] = {}

    def unit(self) -> Element:
        return {(0,) * self.g.dim: ONE}

    def gen(self, j: int) -> Element:
        m = [0] * self.g.dim
        m[j] = 1
        return {tuple(m): ONE}

    def mono_times_gen(self, m: Mono, j: int) -> Element:
        """Straightened m * x_j.

        The element is cached and returned itself, not a copy: callers must
        not mutate it.
        """
        key = (m, j)
        cached = self._mono_gen.get(key)
        if cached is not None:
            return cached
        k = None
        for idx in range(self.g.dim - 1, j, -1):
            if m[idx]:
                k = idx
                break
        if k is None:
            out_m = list(m)
            out_m[j] += 1
            out: Element = {tuple(out_m): ONE}
        else:
            # m = m' x_k with k > j, so m x_j = (m' x_j) x_k + m' [x_k, x_j]
            mp = list(m)
            mp[k] -= 1
            mp = tuple(mp)
            out = {}
            for mono, c in self.mono_times_gen(mp, j).items():
                for mono2, c2 in self.mono_times_gen(mono, k).items():
                    add_into(out, mono2, c * c2)
            for l, cl in self.g.bracket_basis(k, j).items():
                for mono, c in self.mono_times_gen(mp, l).items():
                    add_into(out, mono, cl * c)
        self._mono_gen[key] = out
        return out

    def times_gen(self, e: Element, j: int) -> Element:
        out: Element = {}
        for m, c in e.items():
            for mono, c2 in self.mono_times_gen(m, j).items():
                add_into(out, mono, c * c2)
        return out

    def mul(self, a: Element, b: Element) -> Element:
        """a * b, expanding each monomial of b as a generator word."""
        out: Element = {}
        for m, c in b.items():
            term = {mono: v * c for mono, v in a.items()}
            for j in range(self.g.dim):
                for _ in range(m[j]):
                    term = self.times_gen(term, j)
            for mono, v in term.items():
                add_into(out, mono, v)
        return out

    def gen_times(self, j: int, e: Element) -> Element:
        return self.mul(self.gen(j), e)

    def monomials_up_to(self, cutoff: int) -> List[Mono]:
        """All monomials of total degree <= cutoff, by degree then lex."""
        out: List[Mono] = []

        def rec(prefix: List[int], pos: int, left: int) -> None:
            if pos == self.g.dim:
                out.append(tuple(prefix))
                return
            for a in range(left + 1):
                rec(prefix + [a], pos + 1, left - a)

        rec([], 0, cutoff)
        out.sort(key=lambda m: (degree(m), m))
        return out
