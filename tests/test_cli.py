"""End-to-end checks of the hch command line: exit codes, formats, determinism."""

import json
from pathlib import Path

import pytest

from hch.bands import DegenerateBandError
from hch import cli
from hch.cli import main
from hch.complexes import NotAComplexError
from hch.gkmodules import restrict_module, trivial_module
from hch.liepairs import SubpairEmbedding
from hch.linalg import Matrix
from hch.relhomology import RelativeStandardComplex
from hch.scalars import Scalar
from hch.sl2 import (SUBPAIR_CATALOG, OracleMismatchError, finite_irrep, finite_irrep_so2,
                     so2_pair, trivial_k_pair)


@pytest.fixture()
def files(tmp_path):
    emb = SUBPAIR_CATALOG["diagonal_torus"]()
    paths = {}
    for name, obj in (
            ("pair", so2_pair().to_json()),
            ("diag", emb.to_json()),
            ("F2", restrict_module(emb, finite_irrep_so2(2)).to_json())):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pair_ok(files, capsys):
    code, out, _ = run(capsys, "verify", "--pair", files["pair"])
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_verify_subpair_ok(files, capsys):
    code, out, _ = run(capsys, "verify", "--subpair", files["diag"])
    assert code == 0 and json.loads(out)["ok"]


def test_verify_bad_bracket_is_exit_2(tmp_path, capsys):
    obj = so2_pair().to_json()
    obj["g"]["brackets"] = [[0, 1, 2, "7", "0"]]  # no longer a Lie bracket
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--pair", str(p))
    assert code == 2
    assert not json.loads(out)["ok"]


@pytest.mark.parametrize("brackets, message", [
    # [x0, x1] = x0 beside [x1, x0] = x1: the loader used to keep only the later
    ([[0, 1, 0, "1", "0"], [1, 0, 1, "1", "0"]],
     "brackets[1]: gives [x1, x0] but brackets[0] gives [x0, x1]; give each bracket in one order"),
    ([[0, 1, 0, "1", "0"], [1, 0, 0, "1", "0"]], "brackets[1]: duplicates brackets[0]"),
    ([[0, 1, 1, "1", "0"], [0, 1, 1, "2", "0"]], "brackets[1]: duplicates brackets[0]"),
    ([[0, 1, 0, "1", "0"], [1, 1, 0, "0", "1"]], "brackets[1]: nonzero bracket of x1 with itself"),
])
def test_verify_conflicting_brackets_is_exit_2(tmp_path, capsys, brackets, message):
    obj = {"g": {"dim": 2, "brackets": brackets}, "K": {},
           "ad_grading": [{}, {}]}
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--pair", str(p))
    assert code == 2 and out == ""
    assert err == f"error: pair.g.{message}\n"
    obj["g"]["brackets"] = brackets[:1] + [[1, 1, 0, "0", "0"]]  # a zero self-bracket is fine
    p.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--pair", str(p))
    assert code == 0 and json.loads(out)["ok"]


def test_homology_matches_direct_value(files, capsys):
    code, out, _ = run(capsys, "homology",
                       "--subpair", files["diag"], "--module", files["F2"])
    assert code == 0
    assert json.loads(out) == {"H": [1, 1]}


def non_canonical(obj):
    """obj with each integer string rewritten as an equal non-canonical one:
    "1" -> "2/2", "0" -> "-0", and leading zeros on the rest."""
    if isinstance(obj, dict):
        return {k: non_canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [non_canonical(v) for v in obj]
    if isinstance(obj, str) and obj.lstrip("-").isdigit():
        sign, digits = ("-", obj[1:]) if obj.startswith("-") else ("", obj)
        return {"1": "2/2", "0": "-0"}.get(obj, f"{sign}00{digits}")
    return obj


def test_homology_reads_non_canonical_rationals(files, tmp_path, capsys):
    with open(files["F2"]) as fh:
        doc = non_canonical(json.load(fh))
    assert all(f'"{x}"' in json.dumps(doc) for x in ("2/2", "-0", "002"))
    p = tmp_path / "F2-non-canonical.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "homology", "--subpair", files["diag"], "--module", str(p))
    assert code == 0
    assert json.loads(out) == {"H": [1, 1]}


def test_ext_ep_coinv(files, capsys, monkeypatch):
    calls = []
    real = cli.rel_homology
    monkeypatch.setattr(cli, "rel_homology", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, "ext",
                       "--subpair", files["diag"], "--module", files["F2"])
    assert code == 0 and json.loads(out) == {"Ext": [1, 1]}
    assert len(calls) == 1  # one homology pass for every degree
    # p_dim is 1 here: degrees above it read 0 and are trimmed away
    for top, want in (("0", "[\n    1\n  ]"), ("1", "[\n    1,\n    1\n  ]"),
                      ("3", "[\n    1,\n    1\n  ]")):
        code, out, _ = run(capsys, "ext", "--subpair", files["diag"],
                           "--module", files["F2"], "--max-degree", top)
        assert code == 0 and out == '{\n  "Ext": ' + want + "\n}\n"
    code, out, _ = run(capsys, "ep",
                       "--subpair", files["diag"], "--module", files["F2"])
    assert code == 0 and json.loads(out) == {"EP": 0}
    code, out, _ = run(capsys, "coinv",
                       "--subpair", files["diag"], "--module", files["F2"])
    assert code == 0 and json.loads(out) == {"dim": 1}


def test_hcheck_standard_resolution(files, capsys):
    code, out, _ = run(capsys, "hcheck", "--pair", files["pair"], "--cutoff", "3")
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("cutoff", ["1", "0", "-1"])
def test_hcheck_cutoff_below_two_is_exit_2(files, capsys, cutoff):
    code, out, err = run(capsys, "hcheck", "--pair", files["pair"], "--cutoff", cutoff)
    assert code == 2 and out == ""
    assert "--cutoff: must be at least 2" in err and "Traceback" not in err


def test_schema_error_names_field_and_location(files, tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"k_weights": [{"torus": [0]}]}))  # g_action missing
    code, _, err = run(capsys, "homology",
                       "--subpair", files["diag"], "--module", str(p))
    assert code == 2
    assert "module" in err and "g_action" in err


@pytest.mark.parametrize("command", ["homology", "ext", "ep", "coinv"])
def test_non_equivariant_module_is_exit_2(files, tmp_path, capsys, command):
    obj = json.loads(Path(files["F2"]).read_text())
    for w, f in zip(obj["k_weights"], [0, 1, 0]):  # K^H-characters the action does not respect
        w["finite"] = [f]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, "--subpair", files["diag"], "--module", str(p))
    assert code == 2 and out == ""
    assert err == "error: module: action of g-basis 0 is not K-equivariant at entry (0,1)\n"


@pytest.mark.parametrize("command", ["homology", "ext", "ep", "coinv"])
def test_invalid_subpair_is_exit_2(tmp_path, capsys, command):
    # k0 given the weight 2 in the small pair: Ad(K) no longer fixes its image iota(xi_0)
    pair = so2_pair()
    obj = SubpairEmbedding.identity(pair).to_json()
    obj["small"]["ad_grading"][1] = {"torus": [2]}
    sub, mod = tmp_path / "sub.json", tmp_path / "C.json"
    sub.write_text(json.dumps(obj))
    mod.write_text(json.dumps(trivial_module(pair).to_json()))
    code, out, err = run(capsys, command, "--subpair", str(sub), "--module", str(mod))
    assert code == 2 and out == ""
    assert err == ("error: subpair.small: iota(xi_0) has a component of nonzero Ad-weight"
                   " at basis 1\n")
    code, out, _ = run(capsys, "verify", "--subpair", str(sub))
    assert code == 2
    assert json.loads(out)["violations"][0] == err[len("error: "):-1]


def test_sl2_demo_sweep_table(capsys):
    code, out, _ = run(capsys, "sl2-demo",
                       "--lambda", "0,1,2,3,4,5,6,7,8",
                       "--epsilon", "0", "--subpair", "diagonal_torus")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda\tepsilon\tdim_H0\tdim_H1\tEP\tcertified"
    rows = [line.split("\t") for line in lines[1:]]
    assert len(rows) == 9
    assert [r[3] for r in rows] == ["1", "0", "1", "0", "1", "0", "1", "0", "1"]
    assert [r[2] for r in rows] == ["3", "2", "3", "2", "3", "2", "3", "2", "3"]
    assert all(r[4] == "2" and r[5] == "true" for r in rows)


def test_sl2_demo_json_round_trip_and_determinism(capsys):
    argv = ["sl2-demo", "--lambda", "0,2,1/2", "--epsilon", "0", "--format", "json"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    parsed = json.loads(out1)
    assert json.loads(json.dumps(parsed, sort_keys=True)) == parsed
    code, out2, _ = run(capsys, *argv)
    assert out2 == out1  # byte-identical on identical jobs
    assert parsed["rows"][2]["lambda"] == "1/2"


def test_sl2_demo_rows_past_the_old_ladder(capsys):
    code, out, _ = run(capsys, "sl2-demo", "--lambda", "24,26,30")
    assert code == 0
    assert out.splitlines()[1:] == [f"{lam}\t0\t3\t1\t2\ttrue" for lam in (24, 26, 30)]
    code, out, _ = run(capsys, "sl2-demo", "--lambda", "26,30", "--subpair", "torus_normalizer")
    assert code == 0
    assert out.splitlines()[1:] == [f"{lam}\t0\t2\t1\t1\ttrue" for lam in (26, 30)]


def test_sl2_demo_rows_far_past_the_floor_windows(capsys):
    # lambda = 50 reads the windows 53 and 61, lambda = 30 and 34 the windows 33/41 and 37/45
    code, out, _ = run(capsys, "sl2-demo", "--lambda", "50", "--format", "json")
    assert code == 0
    row, = json.loads(out)["rows"]
    assert (row["dim_H0"], row["dim_H1"], row["certified"]) == (3, 1, True)
    code, out, _ = run(capsys, "sl2-demo", "--lambda", "30,34")
    assert code == 0
    assert out.splitlines()[1:] == ["30\t0\t3\t1\t2\ttrue", "34\t0\t3\t1\t2\ttrue"]


@pytest.mark.parametrize("value", ["4", "abc", "-3"])
def test_sl2_demo_ignores_a_max_window_variable(capsys, monkeypatch, value):
    # the windows follow from N* alone: no environment setting drops one of them
    argv = ["sl2-demo", "--lambda", "2,30,50"]
    monkeypatch.delenv("HCH_MAX_WINDOW", raising=False)
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("HCH_MAX_WINDOW", value)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")
    assert [line.split("\t")[2:] for line in out.splitlines()[1:]] == [
        ["3", "1", "2", "true"]] * 3


def test_sl2_demo_accepts_a_negative_lambda_list(capsys):
    # a list led by a minus sign is a value, not an option: the same rows as the "=" form
    code, out, err = run(capsys, "sl2-demo", "--lambda", "-4,-2,0", "--format", "json")
    assert code == 0, err
    assert [r["lambda"] for r in json.loads(out)["rows"]] == ["-4", "-2", "0"]
    assert run(capsys, "sl2-demo", "--lambda=-4,-2,0", "--format", "json")[1] == out
    code, out, _ = run(capsys, "sl2-demo", "--lambda", "-1/2", "--epsilon", "1")
    assert code == 0 and out.split("\n")[1].startswith("-1/2\t1\t")
    code, _, err = run(capsys, "sl2-demo", "--lambda", "-2,zebra")
    assert code == 2 and "lambda" in err


def test_output_file_and_bad_lambda(files, tmp_path, capsys):
    target = tmp_path / "table.tsv"
    code, out, _ = run(capsys, "sl2-demo", "--lambda", "0",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("lambda\t")
    code, _, err = run(capsys, "sl2-demo", "--lambda", "0,zebra")
    assert code == 2 and "lambda" in err


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("target, exc, argv", [
    ("hch.sl2.band_kernel", DegenerateBandError("cokernel dims [8, 12] differ past N* = 7"),
     ["sl2-demo", "--lambda", "2"]),
    ("hch.sl2.principal_series", OracleMismatchError("band table disagrees"),
     ["sl2-demo", "--lambda", "2"]),
    ("hch.cli.euler_poincare", NotAComplexError("d^2 != 0 at degree 1"),
     ["ep", "--subpair", "diag", "--module", "F2"]),
])
def test_library_errors_are_exit_2_with_class_name(files, capsys, monkeypatch,
                                                   target, exc, argv):
    monkeypatch.setattr(target, _raise(exc))
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {type(exc).__name__}: {exc}\n"


def test_oracle_mismatch_from_a_wrong_vector_field_is_exit_2(capsys, monkeypatch):
    # a shift-2 coefficient quadratic in n cannot come from a vector field
    monkeypatch.setattr("hch.sl2.vector_field_apply",
                        lambda mat, lam, f: {n + 2: Scalar(n * n) for n in f})
    code, _, err = run(capsys, "sl2-demo", "--lambda", "2")
    assert code == 2
    assert err.startswith("error: OracleMismatchError: shift 2 coefficient not affine")


@pytest.mark.parametrize("command", ["homology", "ext"])
def test_non_complex_is_exit_2_with_class_name(tmp_path, capsys, monkeypatch, command):
    pair = trivial_k_pair()
    paths = []
    for name, obj in (("ident", SubpairEmbedding.identity(pair).to_json()),
                      ("F1", finite_irrep(1, pair).to_json())):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(obj))
    # a boundary of all ones squares to nonzero from degree 2 on
    ones = lambda self, n: Matrix(self.dim_at(n + 1), self.dim_at(n), {
        (r, c): Scalar(1) for r in range(self.dim_at(n + 1)) for c in range(self.dim_at(n))})
    monkeypatch.setattr(RelativeStandardComplex, "diff", ones)
    code, out, err = run(capsys, command, "--subpair", str(paths[0]), "--module", str(paths[1]))
    assert code == 2 and out == ""
    # C_n sits at cochain degree -n: d_1 d_2 and d_2 d_3 fail, both named
    assert err == "error: NotAComplexError: d^2 != 0 at degree -3; d^2 != 0 at degree -2\n"


@pytest.mark.parametrize("top", ["-1", "-5"])
def test_ext_max_degree_below_zero_is_exit_2(files, capsys, top):
    code, out, err = run(capsys, "ext", "--subpair", files["diag"],
                         "--module", files["F2"], "--max-degree", top)
    assert code == 2 and out == ""
    assert err == f"error: --max-degree: must be at least 0, got {top}\n"
