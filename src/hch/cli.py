"""Batch front end.

One job per invocation: load JSON descriptions of pairs, modules, and subpair
embeddings, run a verification or homology computation, and emit the result as
JSON or TSV.  Exit codes: 0 success, 2 validation failure (schema or
mathematical, including the library's named failures on well-formed input:
a degenerate band operator (the zero operator, or a target class no line
reaches), a band table the vector-field oracle refutes, an algebra without an
sl2 triple, a relative standard complex whose boundary does not square to
zero, an HCH_MAX_WINDOW that is not an integer or is below 1), 3 computation
finished but HCH_MAX_WINDOW is below a row's check window W + 8, where
W = max(16, N*), so its dimensions are not certified (the window data is
still emitted).
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from .complexes import NotAComplexError
from .hcomplexes import check_h_axioms
from .relhomology import coinvariants, euler_poincare, rel_homology
from .resolution import StandardResolution
from .bands import DegenerateBandError, MaxWindowError, UncertifiedStabilizationError
from .gkmodules import UnsupportedAlgebraError
from .scalars import ONE
from .schemas import SchemaError, load_finite_module, load_pair, load_subpair
from .sl2 import SUBPAIR_CATALOG, OracleMismatchError, sl2_branching_report

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNCERTIFIED = 3

# library failures on well-formed input: exit 2, named by their class
LIBRARY_ERRORS = (DegenerateBandError, MaxWindowError, NotAComplexError, OracleMismatchError,
                  UnsupportedAlgebraError)


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(what, f"cannot read {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(what, f"{path} is not valid JSON: {e}") from None


def _emit(text: str, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _trimmed_dims(dims, top: int):
    out = [dims.get(n, 0) for n in range(top + 1)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# -- subcommands ---------------------------------------------------------------


def _cmd_verify(args) -> int:
    if not args.pair and not args.subpair:
        raise SchemaError("verify", "need --pair or --subpair")
    problems = []
    if args.pair:
        pair = load_pair(_read_json(args.pair, "pair"))
        rep = pair.validate()
        problems += [f"pair: {v}" for v in rep.violations]
    if args.subpair:
        emb = load_subpair(_read_json(args.subpair, "subpair"))
        for name, p in (("small", emb.small), ("big", emb.big)):
            rep = p.validate()
            problems += [f"subpair.{name}: {v}" for v in rep.violations]
        rep = emb.validate()
        problems += [f"subpair: {v}" for v in rep.violations]
    _emit(_json_text({"ok": not problems, "violations": problems}), args.output)
    return EXIT_OK if not problems else EXIT_INVALID


def _load_subpair_module(args):
    emb = load_subpair(_read_json(args.subpair, "subpair"))
    module = load_finite_module(emb.small, _read_json(args.module, "module"))
    return emb, module


def _cmd_homology(args) -> int:
    emb, module = _load_subpair_module(args)
    report = rel_homology(emb, module)
    top = max(report.dims) if report.dims else 0
    _emit(_json_text({"H": _trimmed_dims(report.dims, top)}), args.output)
    return EXIT_OK


def _cmd_ext(args) -> int:
    if args.max_degree is not None and args.max_degree < 0:
        raise SchemaError("--max-degree", f"must be at least 0, got {args.max_degree}")
    emb, module = _load_subpair_module(args)
    # Ext^n(M, C) = H_n of the relative standard complex (ext_via_duality)
    report = rel_homology(emb, module)
    top = args.max_degree
    if top is None:
        top = max(report.dims)
    dims = {n: report.dims.get(n, 0) for n in range(top + 1)}
    _emit(_json_text({"Ext": _trimmed_dims(dims, top)}), args.output)
    return EXIT_OK


def _cmd_ep(args) -> int:
    emb, module = _load_subpair_module(args)
    _emit(_json_text({"EP": euler_poincare(emb, module)}), args.output)
    return EXIT_OK


def _cmd_coinv(args) -> int:
    emb, module = _load_subpair_module(args)
    report = coinvariants(module, [{j: ONE} for j in range(emb.small.g.dim)])
    _emit(_json_text({"dim": report.dims[0]}), args.output)
    return EXIT_OK


def _cmd_hcheck(args) -> int:
    if args.cutoff < 2:
        raise SchemaError("--cutoff", f"must be at least 2, got {args.cutoff}")
    pair = load_pair(_read_json(args.pair, "pair"))
    res = StandardResolution(pair, args.cutoff)
    problems = list(check_h_axioms(res.hcomplex()).violations)
    problems += list(res.check_exactness().violations)
    _emit(_json_text({"ok": not problems, "violations": problems}), args.output)
    return EXIT_OK if not problems else EXIT_INVALID


def _parse_lambdas(text: str):
    out = []
    for i, piece in enumerate(text.split(",")):
        try:
            out.append(Fraction(piece.strip()))
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"--lambda[{i}]",
                              f"{piece.strip()!r} is not a rational number") from None
    if not out:
        raise SchemaError("--lambda", "need at least one value")
    return out


def _cmd_sl2_demo(args) -> int:
    if args.subpair not in SUBPAIR_CATALOG:
        raise SchemaError("--subpair",
                          f"unknown subpair {args.subpair!r}; "
                          f"choose from {sorted(SUBPAIR_CATALOG)}")
    lams = _parse_lambdas(args.lam)
    rows = []
    for lam in lams:
        base = {"lambda": str(lam), "epsilon": args.epsilon}
        try:
            rep = sl2_branching_report(lam, args.epsilon, args.subpair)
        except UncertifiedStabilizationError as e:
            # emit the raw window data for the failed stage; dims stay unknown
            rows.append({**base, "dim_H0": None, "dim_H1": None, "EP": None,
                         "certified": False, "windows": e.stabilization.to_json()})
            continue
        rows.append({**base, "dim_H0": rep.dims.get(0, 0),
                     "dim_H1": rep.dims.get(1, 0),
                     "EP": rep.euler_characteristic(),
                     "certified": rep.certified()})
    if args.format == "tsv":
        lines = ["lambda\tepsilon\tdim_H0\tdim_H1\tEP\tcertified"]
        for r in rows:
            cells = [r["lambda"], str(r["epsilon"])]
            cells += ["-" if r[k] is None else str(r[k])
                      for k in ("dim_H0", "dim_H1", "EP")]
            cells.append("true" if r["certified"] else "false")
            lines.append("\t".join(cells))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(_json_text({"rows": rows}), args.output)
    if not all(r["certified"] for r in rows):
        return EXIT_UNCERTIFIED
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hch",
        description="Exact homology computations for Harish-Chandra pairs.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--output", metavar="PATH",
                       help="write the result here instead of stdout")
        return p

    p = add("verify", _cmd_verify, "validate a pair or subpair description")
    p.add_argument("--pair", metavar="FILE")
    p.add_argument("--subpair", metavar="FILE")

    for name, func, help in (
            ("homology", _cmd_homology, "relative homology dimensions"),
            ("ext", _cmd_ext, "Ext dimensions against the trivial module"),
            ("ep", _cmd_ep, "Euler-Poincare characteristic"),
            ("coinv", _cmd_coinv, "coinvariants dimension")):
        p = add(name, func, help)
        p.add_argument("--subpair", metavar="FILE", required=True)
        p.add_argument("--module", metavar="FILE", required=True)
        if name == "ext":
            p.add_argument("--max-degree", type=int, default=None)

    p = add("hcheck", _cmd_hcheck,
            "contraction axioms and exactness of a standard resolution truncation")
    p.add_argument("--pair", metavar="FILE", required=True)
    p.add_argument("--cutoff", type=int, default=4)

    p = add("sl2-demo", _cmd_sl2_demo, "principal-series branching sweep")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated rational values")
    p.add_argument("--epsilon", type=int, choices=(0, 1), default=0)
    p.add_argument("--subpair", default="diagonal_torus",
                   help="a catalog name: " + ", ".join(sorted(SUBPAIR_CATALOG)))
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    return top


# a value list that starts with a negative number: "-2,0,2", "-1/2", "-.5"
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _glue_lambda_values(argv):
    """``--lambda -2,0,2`` as ``--lambda=-2,0,2``.

    argparse takes a separate value that starts with "-" for an option unless
    it is one plain number, so a list led by a negative number is glued to its
    flag before parsing.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--lambda" and _NEGATIVE_VALUE.match(arg):
            out[-1] = "--lambda=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_glue_lambda_values(argv))
    try:
        return args.func(args)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except LIBRARY_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
