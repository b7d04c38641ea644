"""Fuzzing the JSON loaders: every mutated document loads or raises SchemaError.

Valid pair, subpair and module documents are mutated at random places: keys
dropped, values swapped for other JSON types, indices pushed out of range,
rationals broken, list items dropped or duplicated.  A loader may accept the
result (some mutations keep a document valid) but must never fail with any
other exception.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from hch.gkmodules import restrict_module, trivial_module
from hch.schemas import SchemaError, load_finite_module, load_pair, load_subpair
from hch.sl2 import SUBPAIR_CATALOG, finite_irrep_so2, so2_pair, torus_pair, trivial_k_pair

PAIRS = [make().to_json() for make in (so2_pair, torus_pair, trivial_k_pair)]
SUBPAIRS = {name: make() for name, make in SUBPAIR_CATALOG.items()}
MODULES = [(name, restrict_module(emb, M).to_json())
           for name, emb in SUBPAIRS.items()
           for M in (trivial_module(so2_pair()), finite_irrep_so2(1), finite_irrep_so2(2))]

# replacement values: other JSON types, out-of-range integers, broken rationals
JUNK = [None, True, False, 0, -1, 1, 3, 7, -10**6, 10**12, 1.5, float("nan"), "", "x",
        "1/0", "3/", "/2", "1/2/3", "0x10", "1e3", " 2", "nan", "inf", "-0", "4/-2",
        [], [0], [0, 0, 0], [[0, 0, "1"]], {}, {"re": "1"}, {"re": "1/0"}, {"im": []},
        {"rows": 1}, {"torus": [1]}]


def _paths(doc, prefix=()):
    """Every path into the document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, prefix + (i,))


def _get(doc, path):
    for p in path:
        doc = doc[p]
    return doc


@st.composite
def mutated(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        kind = draw(st.sampled_from(["replace", "drop", "duplicate", "bump"]))
        if not path:
            if kind == "replace":
                doc = copy.deepcopy(draw(st.sampled_from(JUNK)))
            continue
        parent, key = _get(doc, path[:-1]), path[-1]
        value = parent[key]
        if kind == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif kind == "drop":
            del parent[key]
        elif kind == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(value))
        elif isinstance(value, int) and not isinstance(value, bool):
            parent[key] = value + draw(st.sampled_from([-2, -1, 1, 2, 100]))
        elif isinstance(value, str):
            parent[key] = value + draw(st.sampled_from(["/0", "/", "x", "0", ".5"]))
    return doc


def _loads_or_schema_error(load, doc):
    try:
        load(doc)
    except SchemaError:
        pass


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(mutated(PAIRS))
def test_load_pair_fuzz(doc):
    _loads_or_schema_error(load_pair, doc)


@FUZZ
@given(mutated([emb.to_json() for emb in SUBPAIRS.values()]))
def test_load_subpair_fuzz(doc):
    _loads_or_schema_error(load_subpair, doc)


@FUZZ
@given(st.data())
def test_load_finite_module_fuzz(data):
    name, _ = data.draw(st.sampled_from(MODULES))
    doc = data.draw(mutated([m for n, m in MODULES if n == name]))
    _loads_or_schema_error(lambda d: load_finite_module(SUBPAIRS[name].small, d), doc)


def test_unmutated_documents_load():
    for doc in PAIRS:
        assert load_pair(json.loads(json.dumps(doc))).to_json() == doc
    for emb in SUBPAIRS.values():
        assert load_subpair(emb.to_json()).to_json() == emb.to_json()
    for name, doc in MODULES:
        assert load_finite_module(SUBPAIRS[name].small, doc).to_json() == doc
