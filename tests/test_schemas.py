"""Fuzzing the JSON loaders: every mutated document loads or raises SchemaError.

Valid pair, subpair and module documents are mutated at random places: keys
dropped, values swapped for other JSON types, indices pushed out of range,
rationals broken, list items dropped or duplicated.  A loader may accept the
result (some mutations keep a document valid) but must never fail with any
other exception.  Documents with a single fault must fail with an exact text.
"""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hch import scalars, schemas
from hch.gkmodules import restrict_module, trivial_module
from hch.schemas import SchemaError, _check_rational, load_finite_module, load_pair, load_subpair
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


@pytest.mark.parametrize("s", ["007", "-0", "+3", " 3", "3_000", "\u0663", "\u00b2", "1/2", "1.5",
                               "1e3", "", "-", "--1", "1/0", "-002",
                               pytest.param("9" * 4301, id="4301-digits")])
def test_rational_check_accepts_what_fraction_accepts(s):
    try:
        Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        with pytest.raises(SchemaError) as info:
            _check_rational(s, "x")
        assert str(info.value) == f"x: not a rational number: {e}"
    else:
        _check_rational(s, "x")


# -- one fault per document: the exact error text ---------------------------------

def _diag_subpair():
    return copy.deepcopy(SUBPAIRS["diagonal_torus"].to_json())


def _diag_f2():
    return restrict_module(SUBPAIRS["diagonal_torus"], finite_irrep_so2(2)).to_json()


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _drop(doc, path):
    del _get(doc, path[:-1])[path[-1]]
    return doc


def _append(doc, path, value):
    _get(doc, path).append(value)
    return doc


def _load_module_doc(doc):
    return load_finite_module(SUBPAIRS["diagonal_torus"].small, doc)


ONE_FAULT = [
    ("bad rational", _load_module_doc,
     lambda: _set(_diag_f2(), ("g_action", 0, "entries", 0, 2, "re"), "1/0"),
     "module.g_action[0].entries[0][2].re: not a rational number: Fraction(1, 0)"),
    ("scalar key", _load_module_doc,
     lambda: _set(_diag_f2(), ("g_action", 0, "entries", 0, 2, "x"), "0"),
     'module.g_action[0].entries[0][2].x: scalar objects carry only "re" and "im"'),
    ("entry outside", _load_module_doc,
     lambda: _set(_diag_f2(), ("g_action", 0, "entries", 0, 0), 3),
     "module.g_action[0].entries[0]: position (3,1) outside a 3x3 matrix"),
    ("entry not a triple", _load_module_doc,
     lambda: _set(_diag_f2(), ("g_action", 0, "entries", 1), [1, 0]),
     "module.g_action[0].entries[1]: entries are [row, col, value] triples"),
    ("missing rows", _load_module_doc,
     lambda: _drop(_diag_f2(), ("g_action", 0, "rows")),
     "module.g_action[0]: missing required field 'rows'"),
    ("bracket not a quintuple", load_pair,
     lambda: _set(torus_pair().to_json(), ("g", "brackets", 1), [0, 2, 1, "1"]),
     "pair.g.brackets[1]: brackets are [j, k, l, re, im] quintuples"),
    ("bracket index", load_pair,
     lambda: _set(torus_pair().to_json(), ("g", "brackets", 2, 2), 3),
     "pair.g.brackets[2][2]: basis index 3 outside 0..2"),
    ("bracket in both orders", load_pair,
     lambda: _append(torus_pair().to_json(), ("g", "brackets"), [1, 0, 1, "1", "0"]),
     "pair.g.brackets[3]: gives [x1, x0] but brackets[0] gives [x0, x1]; "
     "give each bracket in one order"),
    ("finite invariant 3", load_pair,
     lambda: _set(torus_pair().to_json(), ("K", "finite_invariants"), [3]),
     "pair.K.finite_invariants[0]: finite invariant 3 must divide 4"),
    ("negative torus rank", load_pair,
     lambda: _set(torus_pair().to_json(), ("K", "torus_rank"), -1),
     "pair.K.torus_rank: torus rank must be nonnegative"),
    ("ad_grading length", load_pair,
     lambda: _drop(torus_pair().to_json(), ("ad_grading", 2)),
     "pair.ad_grading: need one character per basis vector (3), got 2"),
    ("character shape", load_pair,
     lambda: _set(torus_pair().to_json(), ("ad_grading", 1, "torus"), [0, 0]),
     "pair: character shape does not match group"),
    ("iota shape", load_pair,
     lambda: _set(torus_pair().to_json(), ("iota", "cols"), 2),
     "pair: iota must be dim(g) x torus_rank"),
    ("small character shape", load_subpair,
     lambda: _set(_diag_subpair(), ("small", "ad_grading", 0, "finite"), [0, 0]),
     "subpair: character shape does not match group"),
    ("grp_embed row length", load_subpair,
     lambda: _set(_diag_subpair(), ("grp_embed", "finite_map", 0), [1, 0]),
     "subpair: finite_map rows act on big torus exponents + finite residues"),
    ("alg_embed shape", load_subpair,
     lambda: _set(_diag_subpair(), ("alg_embed", "rows"), 4),
     "subpair: alg_embed must be dim(g) x dim(h)"),
    ("g_action count", _load_module_doc,
     lambda: _append(_diag_f2(), ("g_action",), _diag_f2()["g_action"][0]),
     "module.g_action: need one matrix per algebra basis vector (1), got 2"),
    ("action shape", _load_module_doc,
     lambda: _set(_diag_f2(), ("g_action", 0, "cols"), 4),
     "module.g_action[0]: action matrices must be 3x3"),
    ("weight shape", _load_module_doc,
     lambda: _set(_diag_f2(), ("k_weights", 1, "finite"), []),
     "module: character shape does not match group"),
    ("not equivariant", _load_module_doc,
     lambda: _set(_diag_f2(), ("k_weights", 1, "finite"), [1]),
     "module: action of g-basis 0 is not K-equivariant at entry (0,1)"),
]


@pytest.mark.parametrize("load, make, text", [row[1:] for row in ONE_FAULT],
                         ids=[row[0] for row in ONE_FAULT])
def test_one_fault_error_text(load, make, text):
    with pytest.raises(SchemaError) as info:
        load(make())
    assert str(info.value) == text


def test_duplicated_matrix_position_is_rejected():
    # the later entry used to replace the earlier one: here it zeroed the action at (0, 1)
    doc = _append(_diag_f2(), ("g_action", 0, "entries"), [0, 1, "0"])
    with pytest.raises(SchemaError) as info:
        _load_module_doc(doc)
    assert str(info.value) == "module.g_action[0].entries[4]: duplicates entries[0]"


def _rationals(doc):
    """The number of rational values in a module document: one per matrix scalar,
    or one per "re" and "im" key of a scalar object."""
    return sum(len(v) if isinstance(v, dict) else 1
               for m in doc["g_action"] for _, _, v in m.get("entries", []))


def test_each_rational_is_parsed_once(monkeypatch):
    doc = _diag_f2()
    calls = []
    ratio = scalars._ratio
    counted = lambda x: calls.append(x) or ratio(x)  # noqa: E731
    monkeypatch.setattr(scalars, "_ratio", counted)
    monkeypatch.setattr(schemas, "_ratio", counted)
    M = _load_module_doc(doc)
    assert M.to_json() == doc
    assert len(calls) == _rationals(doc) == 8
