"""Sparse Lie-algebra elements against the dense routines they replaced.

The bracket, ad, Jacobi check, iota, embedding and module restriction read and
return {index: Scalar} maps.  ``dense_reference`` keeps the coordinate-tuple
versions; both must give the same elements, matrices, violations and modules.
"""

import copy
import random

import pytest

import dense_reference as dense
from dense_reference import as_map, unit_vec
from hch.gkmodules import restrict_module
from hch.liepairs import LieAlgebra, SubpairEmbedding
from hch.scalars import Scalar
from hch.sl2 import SUBPAIR_CATALOG, finite_irrep_so2, sl2, sl2_rotation_basis, so2_pair
from test_resolution import sl2_sum_pair

ALGEBRAS = {"sl2": sl2, "rotation": sl2_rotation_basis, "sl2+sl2": lambda: sl2_sum_pair().g}


def random_elements(rng, dim, count=6):
    """Basis vectors, then random tuples with some zero coordinates."""
    out = [unit_vec(dim, j) for j in range(dim)]
    for _ in range(count):
        out.append(tuple(Scalar(rng.randint(-3, 3), rng.choice((0, 0, 1))) if rng.random() < 0.6
                         else Scalar(0) for _ in range(dim)))
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_bracket_and_ad_match_the_dense_reference(name):
    g = ALGEBRAS[name]()
    for j in range(g.dim):
        for k in range(g.dim):
            assert g.bracket_basis(j, k) == as_map(dense.bracket_basis(g, j, k)), (j, k)
    xs = random_elements(random.Random(name), g.dim)
    for x in xs:
        assert g.ad(as_map(x)) == dense.ad(g, x)
        for y in xs:
            got = g.bracket(as_map(x), as_map(y))
            assert got == as_map(dense.bracket(g, x, y))
            assert list(got) == sorted(got)
    assert g.check_jacobi().ok and not dense.jacobi_violations(g)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_check_jacobi_names_the_dense_reference_triples(name):
    g = ALGEBRAS[name]()
    rng = random.Random(name)
    counts = []
    for (j, k), comp in g._brackets.items():
        for l in comp:
            # one component flipped, then one moved to another basis vector
            for change in ({l: -comp[l]}, {l: Scalar(0), (l + 1) % g.dim: comp[l]},
                           {rng.randrange(g.dim): Scalar(rng.randint(1, 3))}):
                brackets = {key: dict(c) for key, c in g._brackets.items()}
                brackets[(j, k)] = {**comp, **change}
                broken = LieAlgebra(g.dim, g.basis_labels, brackets)
                want = dense.jacobi_violations(broken)
                assert list(broken.check_jacobi().violations) == want
                counts.append(len(want))
    # some copy is broken; in sl2 + sl2 some copy fails on several triples
    assert max(counts) >= (2 if g.dim > 3 else 1)


def embeddings():
    out = {name: make() for name, make in SUBPAIR_CATALOG.items()}
    out["identity(so2)"] = SubpairEmbedding.identity(so2_pair())
    out["identity(sl2+sl2)"] = SubpairEmbedding.identity(sl2_sum_pair())
    return out


@pytest.mark.parametrize("name", sorted(embeddings()))
def test_iota_and_embed_match_the_dense_reference(name):
    emb = embeddings()[name]
    for pair in (emb.small, emb.big):
        for t in range(pair.K.torus_rank):
            assert pair.iota_vec(t) == as_map(dense.column(pair.iota, t))
    for x in random_elements(random.Random(name), emb.small.g.dim):
        got = emb.embed(as_map(x))
        assert got == as_map(dense.embed(emb, x))
        assert list(got) == sorted(got)
    assert emb.validate().ok


@pytest.mark.parametrize("name", sorted(SUBPAIR_CATALOG))
def test_restrict_module_matches_the_dense_reference(name):
    emb = SUBPAIR_CATALOG[name]()
    for m in range(7):
        big = finite_irrep_so2(m)
        assert restrict_module(emb, big).to_json() == dense.restrict_module(emb, big).to_json()


def scribble(obj):
    """Overwrite every list and dict inside obj, innermost first."""
    if isinstance(obj, list):
        for x in obj:
            scribble(x)
        obj[:] = ["scribbled"]
    elif isinstance(obj, dict):
        for x in obj.values():
            scribble(x)
        obj["scribbled"] = True


@pytest.mark.parametrize("name", sorted(SUBPAIR_CATALOG))
def test_to_json_hands_out_copies(name):
    for obj in (SUBPAIR_CATALOG[name](), so2_pair()):
        before = copy.deepcopy(obj.to_json())
        scribble(obj.to_json())
        assert obj.to_json() == before
