"""Reading the JSON inputs of the batch front end, in one checked pass.

``load_pair``, ``load_subpair`` and ``load_finite_module`` are the one reader
of the input format.  Each walks its document once: a field is checked where
it is read and turned into its value right there (every rational goes through
``scalars._ratio`` once), and each part is built from parts already checked,
a matrix placed through ``Matrix._raw``.  A malformed file fails with the name
and location of the offending field (e.g. ``pair.g.brackets[3]``) instead of a
KeyError deep inside the library; a constructor's own ``ValueError`` (a
character of the wrong shape, an iota of the wrong size) is reported at the
loader's location.  Modules are also checked mathematically (bracket
representation, K-equivariance) before anything is computed on them.
"""

from typing import Any, Dict, Tuple

from .gkmodules import FiniteModule
from .liepairs import CharacterRestriction, DiagGroup, LieAlgebra, Pair, SubpairEmbedding
from .linalg import Matrix
from .scalars import Scalar, _ratio, _reduced


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


def _int_list(v: Any, loc: str) -> list:
    return [_check_int(a, f"{loc}[{i}]") for i, a in enumerate(_check_list(v, loc))]


def _check_rational(v: Any, loc: str) -> Tuple[int, int]:
    """``(numerator, denominator)`` of an integer or a "p/q" string."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise SchemaError(loc, f'expected an integer or a "p/q" string, got {v!r}')
    try:
        return _ratio(v)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(loc, f"not a rational number: {e}") from None


def _gaussian(re: Tuple[int, int], im: Tuple[int, int]) -> Scalar:
    """The Scalar re + im*i of two parsed rationals."""
    (p, q), (s, t) = re, im
    return _reduced(p * t, s * q, q * t)


def _scalar(v: Any, loc: str) -> Scalar:
    if isinstance(v, dict):
        for key in v:
            if key not in ("re", "im"):
                raise SchemaError(f"{loc}.{key}", 'scalar objects carry only "re" and "im"')
        re, im = (_check_rational(v[key], f"{loc}.{key}") if key in v else (0, 1)
                  for key in ("re", "im"))
        return _gaussian(re, im)
    return _gaussian(_check_rational(v, loc), (0, 1))


def _matrix(obj: Any, loc: str) -> Matrix:
    rows = _check_int(_need(obj, "rows", loc), f"{loc}.rows")
    cols = _check_int(_need(obj, "cols", loc), f"{loc}.cols")
    if rows < 0 or cols < 0:
        raise SchemaError(loc, "rows and cols must be nonnegative")
    first: Dict[Tuple[int, int], int] = {}  # position -> index of the entry naming it
    ents: Dict[Tuple[int, int], Scalar] = {}
    for i, ent in enumerate(_check_list(obj.get("entries", []), f"{loc}.entries")):
        where = f"{loc}.entries[{i}]"
        ent = _check_list(ent, where)
        if len(ent) != 3:
            raise SchemaError(where, "entries are [row, col, value] triples")
        r = _check_int(ent[0], f"{where}[0]")
        c = _check_int(ent[1], f"{where}[1]")
        if not (0 <= r < rows and 0 <= c < cols):
            raise SchemaError(where, f"position ({r},{c}) outside a {rows}x{cols} matrix")
        if (r, c) in first:
            raise SchemaError(where, f"duplicates entries[{first[r, c]}]")
        first[r, c] = i
        v = _scalar(ent[2], f"{where}[2]")
        if v:
            ents[r, c] = v
    return Matrix._raw(rows, cols, ents)


def _character(obj: Any, loc: str) -> Tuple[list, list]:
    """The checked (torus, finite) lists; ``K.character`` builds the character
    once the rest of its pair or module is checked."""
    if not isinstance(obj, dict):
        raise SchemaError(loc, f"expected an object, got {type(obj).__name__}")
    return tuple(_int_list(obj.get(key, []), f"{loc}.{key}") for key in ("torus", "finite"))


def _group(obj: Any, loc: str) -> DiagGroup:
    if not isinstance(obj, dict):
        raise SchemaError(loc, f"expected an object, got {type(obj).__name__}")
    rank = _check_int(obj.get("torus_rank", 0), f"{loc}.torus_rank")
    if rank < 0:
        raise SchemaError(f"{loc}.torus_rank", "torus rank must be nonnegative")
    invariants = _int_list(obj.get("finite_invariants", []), f"{loc}.finite_invariants")
    for i, n in enumerate(invariants):
        if n not in (1, 2, 4):
            raise SchemaError(f"{loc}.finite_invariants[{i}]",
                              f"finite invariant {n} must divide 4")
    return DiagGroup(rank, invariants)


def _algebra(obj: Any, loc: str) -> LieAlgebra:
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
    brackets: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
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
        re = _check_rational(row[3], f"{where}[3]")
        im = _check_rational(row[4], f"{where}[4]")
        j, k, l = row[:3]
        pair = (min(j, k), max(j, k))
        if (pair, l) in first_entry:
            raise SchemaError(where, f"duplicates brackets[{first_entry[pair, l]}]")
        first_entry[pair, l] = i
        if j == k:
            if re[0] or im[0]:
                raise SchemaError(where, f"nonzero bracket of x{j} with itself")
            continue
        i0, order = first_order.setdefault(pair, (i, (j, k)))
        if order != (j, k):
            raise SchemaError(where, f"gives [x{j}, x{k}] but brackets[{i0}] gives "
                                     f"[x{k}, x{j}]; give each bracket in one order")
        brackets.setdefault((j, k), {})[l] = _gaussian(re, im)
    return LieAlgebra(dim, labels, brackets)


def _pair(obj: Any, loc: str) -> Pair:
    g = _algebra(_need(obj, "g", loc), f"{loc}.g")
    K = _group(_need(obj, "K", loc), f"{loc}.K")
    grading = _check_list(_need(obj, "ad_grading", loc), f"{loc}.ad_grading")
    if len(grading) != g.dim:
        raise SchemaError(f"{loc}.ad_grading",
                          f"need one character per basis vector ({g.dim}), got {len(grading)}")
    grading = [_character(ch, f"{loc}.ad_grading[{i}]") for i, ch in enumerate(grading)]
    iota = _matrix(obj["iota"], f"{loc}.iota") if "iota" in obj else None
    return Pair(g, K, [K.character(*ch) for ch in grading], iota)


def _restriction(obj: Any, loc: str, big: DiagGroup, small: DiagGroup) -> CharacterRestriction:
    if not isinstance(obj, dict):
        raise SchemaError(loc, f"expected an object, got {type(obj).__name__}")
    maps = ([_int_list(row, f"{loc}.{key}[{i}]")
             for i, row in enumerate(_check_list(obj.get(key, []), f"{loc}.{key}"))]
            for key in ("torus_map", "finite_map"))
    return CharacterRestriction(big, small, *maps)


def _subpair(obj: Any, loc: str) -> SubpairEmbedding:
    small = _pair(_need(obj, "small", loc), f"{loc}.small")
    big = _pair(_need(obj, "big", loc), f"{loc}.big")
    alg = _matrix(_need(obj, "alg_embed", loc), f"{loc}.alg_embed")
    grp = _restriction(_need(obj, "grp_embed", loc), f"{loc}.grp_embed", big.K, small.K)
    return SubpairEmbedding(small, big, alg, grp)


def _finite_module(pair: Pair, obj: Any, loc: str) -> FiniteModule:
    weights = [_character(ch, f"{loc}.k_weights[{i}]") for i, ch in
               enumerate(_check_list(_need(obj, "k_weights", loc), f"{loc}.k_weights"))]
    actions = []
    for i, m in enumerate(_check_list(_need(obj, "g_action", loc), f"{loc}.g_action")):
        where = f"{loc}.g_action[{i}]"
        m = _matrix(m, where)
        if m.rows != len(weights) or m.cols != len(weights):
            raise SchemaError(where, f"action matrices must be {len(weights)}x{len(weights)}")
        actions.append(m)
    if len(actions) != pair.g.dim:
        raise SchemaError(f"{loc}.g_action",
                          f"need one matrix per algebra basis vector ({pair.g.dim}), "
                          f"got {len(actions)}")
    return FiniteModule(pair, [pair.K.character(*ch) for ch in weights], actions)


# -- loaders ------------------------------------------------------------------


def _read(read, loc: str, *args):
    """``read(*args, loc)``, with a constructor's ValueError named at ``loc``."""
    try:
        return read(*args, loc)
    except SchemaError:
        raise
    except ValueError as e:
        raise SchemaError(loc, str(e)) from None


def load_pair(obj: Any, loc: str = "pair") -> Pair:
    return _read(_pair, loc, obj)


def load_subpair(obj: Any, loc: str = "subpair") -> SubpairEmbedding:
    return _read(_subpair, loc, obj)


def load_finite_module(pair: Pair, obj: Any, loc: str = "module") -> FiniteModule:
    module = _read(_finite_module, loc, pair, obj)
    rep = module.validate()
    if not rep:
        raise SchemaError(loc, rep.violations[0])
    return module
