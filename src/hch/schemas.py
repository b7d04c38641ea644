"""Input validation for the batch front end.

Every loader checks the raw JSON against the expected shape before handing it
to the ``from_json`` constructors, so a malformed file fails with the name and
location of the offending field (e.g. ``pair.g.brackets[3]``) instead of a
KeyError deep inside the library.  Modules are also checked mathematically
(bracket representation, K-equivariance) before anything is computed on them.
"""

from fractions import Fraction
from typing import Any

from .gkmodules import FiniteModule
from .liepairs import Pair, SubpairEmbedding


class SchemaError(ValueError):
    """A named schema violation: where it is and what is wrong."""

    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


def _need(obj: Any, key: str, loc: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(loc, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(loc, f"missing required field {key!r}")
    return obj[key]


def _check_int(v: Any, loc: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(loc, f"expected an integer, got {v!r}")
    return v


def _check_list(v: Any, loc: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(loc, f"expected an array, got {type(v).__name__}")
    return v


def _check_rational(v: Any, loc: str) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise SchemaError(loc, f'expected an integer or a "p/q" string, got {v!r}')
    try:
        Fraction(v)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(loc, f"not a rational number: {e}") from None


def _check_scalar(v: Any, loc: str) -> None:
    if isinstance(v, dict):
        for key in v:
            if key not in ("re", "im"):
                raise SchemaError(f"{loc}.{key}", 'scalar objects carry only "re" and "im"')
        for key in ("re", "im"):
            if key in v:
                _check_rational(v[key], f"{loc}.{key}")
        return
    _check_rational(v, loc)


def check_matrix(obj: Any, loc: str) -> None:
    rows = _check_int(_need(obj, "rows", loc), f"{loc}.rows")
    cols = _check_int(_need(obj, "cols", loc), f"{loc}.cols")
    if rows < 0 or cols < 0:
        raise SchemaError(loc, "rows and cols must be nonnegative")
    for i, ent in enumerate(_check_list(obj.get("entries", []), f"{loc}.entries")):
        where = f"{loc}.entries[{i}]"
        ent = _check_list(ent, where)
        if len(ent) != 3:
            raise SchemaError(where, "entries are [row, col, value] triples")
        r = _check_int(ent[0], f"{where}[0]")
        c = _check_int(ent[1], f"{where}[1]")
        if not (0 <= r < rows and 0 <= c < cols):
            raise SchemaError(where, f"position ({r},{c}) outside a {rows}x{cols} matrix")
        _check_scalar(ent[2], f"{where}[2]")


def check_character(obj: Any, loc: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(loc, f"expected an object, got {type(obj).__name__}")
    for key in ("torus", "finite"):
        for i, z in enumerate(_check_list(obj.get(key, []), f"{loc}.{key}")):
            _check_int(z, f"{loc}.{key}[{i}]")


def check_group(obj: Any, loc: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(loc, f"expected an object, got {type(obj).__name__}")
    rank = _check_int(obj.get("torus_rank", 0), f"{loc}.torus_rank")
    if rank < 0:
        raise SchemaError(f"{loc}.torus_rank", "torus rank must be nonnegative")
    for i, n in enumerate(_check_list(obj.get("finite_invariants", []),
                                      f"{loc}.finite_invariants")):
        n = _check_int(n, f"{loc}.finite_invariants[{i}]")
        if n not in (1, 2, 4):
            raise SchemaError(f"{loc}.finite_invariants[{i}]",
                              f"finite invariant {n} must divide 4")


def check_algebra(obj: Any, loc: str) -> None:
    dim = _check_int(_need(obj, "dim", loc), f"{loc}.dim")
    if dim < 0:
        raise SchemaError(f"{loc}.dim", "dimension must be nonnegative")
    labels = obj.get("basis_labels")
    if labels is not None:
        labels = _check_list(labels, f"{loc}.basis_labels")
        if len(labels) != dim:
            raise SchemaError(f"{loc}.basis_labels", f"need {dim} labels, got {len(labels)}")
        for i, name in enumerate(labels):
            if not isinstance(name, str):
                raise SchemaError(f"{loc}.basis_labels[{i}]", "labels are strings")
    # each bracket [x_j, x_k] is given in one order, each of its components once
    first_order = {}  # unordered pair -> (row, (j, k)) of its first entry
    first_entry = {}  # (unordered pair, l) -> row
    for i, row in enumerate(_check_list(obj.get("brackets", []), f"{loc}.brackets")):
        where = f"{loc}.brackets[{i}]"
        row = _check_list(row, where)
        if len(row) != 5:
            raise SchemaError(where, "brackets are [j, k, l, re, im] quintuples")
        for pos in range(3):
            idx = _check_int(row[pos], f"{where}[{pos}]")
            if not 0 <= idx < dim:
                raise SchemaError(f"{where}[{pos}]", f"basis index {idx} outside 0..{dim - 1}")
        _check_rational(row[3], f"{where}[3]")
        _check_rational(row[4], f"{where}[4]")
        j, k, l = row[:3]
        if j == k:
            if Fraction(row[3]) or Fraction(row[4]):
                raise SchemaError(where, f"nonzero bracket of x{j} with itself")
            continue
        pair = (min(j, k), max(j, k))
        if (pair, l) in first_entry:
            raise SchemaError(where, f"duplicates brackets[{first_entry[pair, l]}]")
        first_entry[pair, l] = i
        i0, order = first_order.setdefault(pair, (i, (j, k)))
        if order != (j, k):
            raise SchemaError(where, f"gives [x{j}, x{k}] but brackets[{i0}] gives "
                                     f"[x{k}, x{j}]; give each bracket in one order")


def check_pair(obj: Any, loc: str = "pair") -> None:
    check_algebra(_need(obj, "g", loc), f"{loc}.g")
    check_group(_need(obj, "K", loc), f"{loc}.K")
    grading = _check_list(_need(obj, "ad_grading", loc), f"{loc}.ad_grading")
    dim = obj["g"].get("dim")
    if len(grading) != dim:
        raise SchemaError(f"{loc}.ad_grading",
                          f"need one character per basis vector ({dim}), got {len(grading)}")
    for i, ch in enumerate(grading):
        check_character(ch, f"{loc}.ad_grading[{i}]")
    if "iota" in obj:
        check_matrix(obj["iota"], f"{loc}.iota")


def check_restriction(obj: Any, loc: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(loc, f"expected an object, got {type(obj).__name__}")
    for key in ("torus_map", "finite_map"):
        for i, row in enumerate(_check_list(obj.get(key, []), f"{loc}.{key}")):
            for j, a in enumerate(_check_list(row, f"{loc}.{key}[{i}]")):
                _check_int(a, f"{loc}.{key}[{i}][{j}]")


def check_subpair(obj: Any, loc: str = "subpair") -> None:
    check_pair(_need(obj, "small", loc), f"{loc}.small")
    check_pair(_need(obj, "big", loc), f"{loc}.big")
    check_matrix(_need(obj, "alg_embed", loc), f"{loc}.alg_embed")
    check_restriction(_need(obj, "grp_embed", loc), f"{loc}.grp_embed")


def check_finite_module(obj: Any, loc: str = "module") -> None:
    weights = _check_list(_need(obj, "k_weights", loc), f"{loc}.k_weights")
    for i, ch in enumerate(weights):
        check_character(ch, f"{loc}.k_weights[{i}]")
    actions = _check_list(_need(obj, "g_action", loc), f"{loc}.g_action")
    for i, m in enumerate(actions):
        where = f"{loc}.g_action[{i}]"
        check_matrix(m, where)
        if m.get("rows") != len(weights) or m.get("cols") != len(weights):
            raise SchemaError(where, f"action matrices must be {len(weights)}x{len(weights)}")


# -- loaders ------------------------------------------------------------------


def load_pair(obj: Any, loc: str = "pair") -> Pair:
    check_pair(obj, loc)
    try:
        return Pair.from_json(obj)
    except ValueError as e:
        raise SchemaError(loc, str(e)) from None


def load_subpair(obj: Any, loc: str = "subpair") -> SubpairEmbedding:
    check_subpair(obj, loc)
    try:
        return SubpairEmbedding.from_json(obj)
    except ValueError as e:
        raise SchemaError(loc, str(e)) from None


def load_finite_module(pair: Pair, obj: Any, loc: str = "module") -> FiniteModule:
    check_finite_module(obj, loc)
    if len(obj["g_action"]) != pair.g.dim:
        raise SchemaError(f"{loc}.g_action",
                          f"need one matrix per algebra basis vector ({pair.g.dim}), "
                          f"got {len(obj['g_action'])}")
    try:
        module = FiniteModule.from_json(pair, obj)
    except ValueError as e:
        raise SchemaError(loc, str(e)) from None
    rep = module.validate()
    if not rep:
        raise SchemaError(loc, rep.violations[0])
    return module
