"""The hch layers of the traced run and the per-layer metrics derived from it.

Each layer is a set of public hch functions or methods wrapped in spans of
one name.  A traced pass is one run of the workload's job list with every job
inside a root span of its own, named ``job.<kind>`` after the CLI command the
job stands for; its spans give, per layer, the call count,
the self time and the counts the counters below record.  Scalar micro-timings
run on operands sampled from the matrices and band tables the pass produced.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import time
from typing import Dict, Iterable, List

from hch import (bands, complexes, gkmodules, hcomplexes, linalg, pbw, polarfields,
                 poly, relhomology, resolution, sl2)
from hch.scalars import Scalar

from .spans import Installation, Tracer

BAND_LAYERS = ("bands.kernel", "bands.cokernel")
EXT_JOBS = ("job.ext", "job.ext-grid")

# layer -> keys of Tracer.totals reported as "<layer>.<key>"
REPORTED = {
    "sl2.principal_series": ("calls", "self_s"),
    "poly.interpolate": ("calls", "self_s"),
    "polarfields.apply": ("calls", "self_s"),
    "bands.kernel": ("self_s",),
    "bands.cokernel": ("self_s",),
    "linalg.elim": ("calls", "self_s", "cells", "nnz_in"),
    "linalg.subspace": ("calls", "self_s"),
    "linalg.matmul": ("calls", "self_s", "nnz_out"),
    "linalg.matrix_init": ("calls", "self_s", "entries"),
    "gkmodules.kron": ("calls", "self_s", "nnz_out"),
    "gkmodules.direct_sum": ("calls", "self_s"),
    "complexes.tensor": ("self_s",),
    "complexes.cone": ("self_s",),
    "complexes.check_complex": ("self_s",),
    "complexes.hom": ("self_s",),
    "hcomplexes.h_tensor": ("self_s",),
    "hcomplexes.h_cone": ("self_s",),
    "hcomplexes.check_axioms": ("self_s",),
    "pbw.gen_times": ("calls", "self_s"),
    "resolution.hcomplex": ("self_s", "max_term_dim"),
    "resolution.exactness": ("self_s",),
    "relhomology.complex": ("self_s",),
    "relhomology.homology": ("self_s",),
}
DERIVED = ("bands.windows", "bands.window_cols", "gkmodules.kron.identity_frac",
           "relhomology.complex.builds", "relhomology.complex.builds_per_ext_job",
           "trace.unattributed_s")
SCALAR_METRICS = ("scalars.add_ns", "scalars.mul_ns", "scalars.cmul_ns")
OVERHEAD = "trace.overhead_frac"


def metric_names() -> List[str]:
    names = [f"{layer}.{key}" for layer, keys in REPORTED.items() for key in keys]
    return names + list(DERIVED) + list(SCALAR_METRICS) + [OVERHEAD]


def unit(metric: str) -> str:
    if metric.endswith("_ns"):
        return "ns"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_job"):
        return "1/job"
    return "count"


def is_timing(metric: str) -> bool:
    return metric.endswith("_s")


# -- operand sampling and scalar micro-timings --------------------------------------


class ScalarPool:
    """Reservoir sample of the Scalar operands that traced layers handled."""

    def __init__(self, size: int = 4096, seed: int = 0):
        self.size = size
        self.items: List[Scalar] = []
        self.seen = 0
        self._rng = random.Random(seed)

    def offer(self, values: Iterable[Scalar], limit: int = 4) -> None:
        for v in itertools.islice(values, limit):
            self.seen += 1
            if len(self.items) < self.size:
                self.items.append(v)
            else:
                j = self._rng.randrange(self.seen)
                if j < self.size:
                    self.items[j] = v


def _pairs(xs: List[Scalar], n: int):
    k = len(xs)
    return [(xs[i % k], xs[(7 * i + 3) % k]) for i in range(n)]


def _ns_per_op(pairs, multiply: bool, repeats: int) -> float:
    clock = time.perf_counter_ns
    samples = []
    for _ in range(repeats):
        t0 = clock()
        if multiply:
            for a, b in pairs:
                a * b
        else:
            for a, b in pairs:
                a + b
        t1 = clock()
        for a, b in pairs:
            pass
        t2 = clock()
        samples.append(((t1 - t0) - (t2 - t1)) / len(pairs))
    return statistics.median(samples)


def scalar_timings(pool: ScalarPool, n: int = 2000, repeats: int = 7) -> Dict[str, float]:
    """ns per add, real mul and complex mul on the pool's operands.

    Complex operands are the sampled ones with a nonzero imaginary part; when
    the workload has too few, pairs of sampled real parts are joined into
    a + b i.
    """
    items = pool.items
    reals = [s for s in items if s.im == 0 and s.re != 0]
    cplx = [s for s in items if s.im != 0]
    if len(cplx) < 64:
        cplx = [Scalar(a.re, b.re) for a, b in zip(reals, reals[1:])]
    out = {}
    for metric, xs, multiply in (("scalars.add_ns", items, False),
                                 ("scalars.mul_ns", reals, True),
                                 ("scalars.cmul_ns", cplx, True)):
        out[metric] = _ns_per_op(_pairs(xs, n), multiply, repeats) if len(xs) >= 2 else 0.0
    return out


# -- wrappers ------------------------------------------------------------------------


def _is_identity(m) -> bool:
    if m.rows != m.cols or len(m.entries) != m.rows:
        return False
    return all(r == c and v.re == 1 and v.im == 0 for (r, c), v in m.entries.items())


def install(tracer: Tracer, pool: ScalarPool) -> Installation:
    """Wrap every traced layer; the caller uninstalls when the traced pass ends."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "hch" or name.startswith("hch.")]
    inst = Installation()

    def fn(layer, f, counter=None):
        inst.function(tracer, layer, f, mods, counter)

    def method(layer, cls, attr, counter=None):
        inst.method(tracer, layer, cls, attr, counter)

    def band_tables(args, model):
        for op in (model.theta, model.e, model.f, model.kappa):
            for p in op.table.values():
                pool.offer(p.coeffs)
        return {}

    def elim(args, result):
        m = args[0]
        pool.offer(m.entries.values(), 8)
        return {"cells": m.rows * m.cols, "nnz_in": len(m.entries), "cols": m.cols}

    def matmul(args, result):
        pool.offer(args[0].entries.values())
        pool.offer(args[1].entries.values())
        return {"nnz_out": len(result.entries)}

    def matrix_init(args, result):
        entries = args[3] if len(args) > 3 else None
        return {"entries": len(entries) if entries else 0}

    def kron(args, result):
        a, b = args
        pool.offer(a.entries.values())
        pool.offer(b.entries.values())
        return {"nnz_out": len(result.entries),
                "identity": int(_is_identity(a) or _is_identity(b))}

    def hcomplex(args, h):
        return {"max_term_dim": max((h.base.dim_at(n) for n in h.degrees()), default=0)}

    fn("sl2.principal_series", sl2.principal_series, band_tables)
    fn("poly.interpolate", poly.interpolate)
    fn("polarfields.apply", polarfields.vector_field_apply)
    fn("bands.kernel", bands.band_kernel)
    fn("bands.cokernel", bands.band_cokernel)
    for f in (linalg.rank, linalg.kernel_basis, linalg.solve, linalg.inverse,
              linalg.row_space_rows):
        fn("linalg.elim", f, elim)
    method("linalg.subspace", linalg.Subspace, "add")
    method("linalg.subspace", linalg.Subspace, "contains")
    fn("linalg.subspace", linalg.independent_over)
    method("linalg.matmul", linalg.Matrix, "__matmul__", matmul)
    method("linalg.matrix_init", linalg.Matrix, "__init__", matrix_init)
    fn("gkmodules.kron", gkmodules.kron, kron)
    fn("gkmodules.direct_sum", gkmodules.direct_sum)
    fn("complexes.tensor", complexes.tensor_complex)
    fn("complexes.cone", complexes.cone)
    method("complexes.check_complex", complexes.Complex, "check_complex")
    for f in (complexes.hom_complex, complexes.homotopy_classes_dim, complexes.chain_maps):
        fn("complexes.hom", f)
    fn("hcomplexes.h_tensor", hcomplexes.h_tensor)
    fn("hcomplexes.h_cone", hcomplexes.h_cone)
    fn("hcomplexes.check_axioms", hcomplexes.check_h_axioms)
    method("pbw.gen_times", pbw.PBW, "gen_times")
    method("resolution.hcomplex", resolution.StandardResolution, "hcomplex", hcomplex)
    method("resolution.exactness", resolution.StandardResolution, "check_exactness")
    method("relhomology.complex", relhomology.RelativeStandardComplex, "__init__")
    fn("relhomology.homology", relhomology.rel_homology)
    return inst


# -- per-pass metrics ----------------------------------------------------------------


def pass_metrics(tracer: Tracer, lo: int, hi: int) -> Dict[str, float]:
    """Per-layer metrics of the traced pass whose spans are [lo, hi)."""
    tot = tracer.totals(lo, hi, max_keys=("max_term_dim",))
    out = {f"{layer}.{key}": tot.get(layer, {}).get(key, 0)
           for layer, keys in REPORTED.items() for key in keys}
    selfs = tracer.self_times(lo, hi)
    windows = window_cols = 0
    ext_jobs = ext_builds = 0
    in_ext = False
    unattributed = 0.0
    for i in range(lo, hi):
        name = tracer.name(i)
        if tracer.parent[i] < 0:  # a job's root span
            in_ext = name in EXT_JOBS
            ext_jobs += in_ext
            unattributed += selfs[i - lo]
        elif name == "relhomology.complex":
            ext_builds += in_ext
        elif name == "linalg.elim":
            p = tracer.parent[i]
            if p >= 0 and tracer.name(p) in BAND_LAYERS:
                windows += 1
                window_cols += tracer.attrs[i]["cols"]
    kron = tot.get("gkmodules.kron", {})
    builds = tot.get("relhomology.complex", {}).get("calls", 0)
    out["bands.windows"] = windows
    out["bands.window_cols"] = window_cols
    out["gkmodules.kron.identity_frac"] = (kron.get("identity", 0) / kron["calls"]
                                           if kron.get("calls") else 0.0)
    out["relhomology.complex.builds"] = builds
    out["relhomology.complex.builds_per_ext_job"] = ext_builds / ext_jobs if ext_jobs else 0.0
    out["trace.unattributed_s"] = unattributed
    return out
