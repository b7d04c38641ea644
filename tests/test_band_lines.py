"""Band lines are evaluated once per operator; the derivation samples three K-types."""

from collections import Counter
from fractions import Fraction

import pytest

import hch.sl2
from hch.bands import BandOp
from hch.poly import Poly
from hch.polarfields import vector_field_apply
from hch.scalars import Scalar
from hch.sl2 import E_MAT, H_MAT, OracleMismatchError, principal_series, sl2_branching_report

LAMBDAS = [-3, 0, 4, Fraction(7, 3), Fraction(101, 3)]


def _ops(ps):
    return [ps.theta, ps.e, ps.f, ps.kappa, *ps.module.band_ops]


@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_kept_lines_equal_a_fresh_operators_lines(eps, order):
    indices = list(range(-60, 61))
    if order == "descending":
        indices.reverse()
    for lam in LAMBDAS:
        for op in _ops(principal_series(lam, eps)):
            fresh = BandOp(op.table)
            for n in indices:
                line = op.apply_line(n)
                assert line == fresh.apply_line(n), (lam, n)
                assert op.apply_line(n) is line


def test_branching_report_evaluates_each_theta_coefficient_once_per_k_type(monkeypatch):
    made = []
    derive = hch.sl2._derive_band

    def keeping(mat, lam, parity):
        op = derive(mat, lam, parity)
        made.append(op)
        return op

    calls = Counter()
    evaluate = Poly.__call__

    def counting(p, n):
        calls[id(p), n] += 1
        return evaluate(p, n)

    monkeypatch.setattr(hch.sl2, "_derive_band", keeping)
    monkeypatch.setattr(Poly, "__call__", counting)
    report = sl2_branching_report(4, 0)
    assert report.dims == {0: 3, 1: 1}
    theta, = made
    coefficients = {id(p) for p in theta.table.values()}
    seen = {key: k for key, k in calls.items() if key[0] in coefficients}
    # the window check |n| <= 20 and the kernel windows up to 24 on even n
    assert {n for _, n in seen} == set(range(-24, 25, 2))
    assert max(seen.values()) == 1


def _wrong_at(indices):
    """The true oracle plus f_{n+2} at the given K-types n."""
    def oracle(mat, lam, f):
        (n, c), = f.items()
        out = dict(vector_field_apply(mat, lam, f))
        if n in indices:
            out[n + 2] = out.get(n + 2, Scalar(0)) + c
        return out
    return oracle


@pytest.mark.parametrize("mat", [H_MAT, E_MAT])
def test_window_check_rejects_an_oracle_wrong_only_at_six(monkeypatch, mat):
    # n = +-6 was a sample of the seven-point derivation; the three samples miss it
    monkeypatch.setattr(hch.sl2, "vector_field_apply", _wrong_at({-6, 6}))
    with pytest.raises(OracleMismatchError, match=r"disagrees with the oracle at n=-6$"):
        hch.sl2._derive_band(mat, Scalar(Fraction(7, 3)), 0)


def test_derivation_reads_three_samples_and_accepts_the_same_table(monkeypatch):
    points = []
    interpolate = hch.sl2.interpolate

    def recording(pts):
        points.append([n for n, _ in pts])
        return interpolate(pts)

    monkeypatch.setattr(hch.sl2, "interpolate", recording)
    op = hch.sl2._derive_band(H_MAT, Scalar(5), 1)
    assert points == [[-1, 1, 3]] * 2
    for n in range(-41, 42, 2):
        assert op.apply_line(n) == vector_field_apply(H_MAT, Scalar(5), {n: Scalar(1)})
