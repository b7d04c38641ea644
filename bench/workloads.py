"""The benchmark workloads as seeded job lists over the public hch API.

A job is one computation a user runs through the CLI: one ``sl2-demo`` row,
one ``hcheck``, one ``homology``/``ext`` call, or one h-complex construction
with its axiom check.  The seed draws the rational lambda values and the F_m
sizes and shuffles the job order; inputs reach hch only as plain data
(rationals and the JSON documents the CLI loaders accept).

Job counts per pass are 75 and 45.  For J an odd multiple of 5, the
nearest-rank 50th and 90th percentiles of k passes (k * J samples) fall in
the middle of one job's k samples, whatever k is, so they do not jump between
neighbouring jobs when a faster or slower machine runs another pass.  In each
workload the jobs at those two ranks have inputs that do not depend on the
seed.

Each job has three parts: ``run`` (the timed hch calls), ``canon`` (the exact
result as data, hashed into the job's digest) and ``check`` (mathematical
invariants the result must satisfy, so that inputs absent from the reference
digests are still checked).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

from hch import hcomplexes, relhomology, resolution, schemas, sl2
from hch.gkmodules import restrict_module, trivial_module
from hch.liepairs import SubpairEmbedding

from .digest import hcomplex_data

PAIRS = {"so2": sl2.so2_pair, "torus": sl2.torus_pair, "trivial_k": sl2.trivial_k_pair}


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], object]
    canon: Callable[[object], object]
    check: Callable[[object], List[str]]

    @property
    def kind(self) -> str:
        """The CLI command the job stands for, e.g. ``hcheck`` or ``ext-grid``."""
        return self.id.split(" ", 1)[0]


@dataclass(frozen=True)
class Workload:
    jobs: Callable[[random.Random], List[Job]]
    # id of a job whose inputs do not depend on the seed; fresh processes run
    # it first, when nothing an earlier job left behind (a cache filled on
    # first use) can help it, and then again
    cold_job: str


def generate(workload: str, seed: int) -> List[Job]:
    """The workload's job list for this seed, in the order a pass runs it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {tuple(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload].jobs(rng)
    rng.shuffle(jobs)
    return jobs


# -- sweep: sl2_branching_report, as `hch sl2-demo` runs it ---------------------

SWEEP_INTEGER_LAMBDAS = range(-4, 13)
SWEEP_RATIONAL_LAMBDAS = 8
# (epsilon, subpair) sweeps; at epsilon = 1 both subpairs keep no K-type class,
# so their computations coincide and one of them is enough
SWEEPS = ((0, "diagonal_torus"), (0, "torus_normalizer"), (1, "diagonal_torus"))
# EP = dim H0 - dim H1 is constant along a sweep (the index of theta)
SWEEP_EULER = {(0, "diagonal_torus"): 2, (0, "torus_normalizer"): 1, (1, "diagonal_torus"): 0}


def rational_lambdas(rng: random.Random, count: int) -> List[Fraction]:
    """Distinct non-integral lambda in [-4, 12] with denominators 2..9."""
    out = set()
    while len(out) < count:
        q = rng.randint(2, 9)
        lam = Fraction(rng.randint(-4 * q, 12 * q), q)
        if lam.denominator > 1:
            out.add(lam)
    return sorted(out)


def _sweep_jobs(rng: random.Random) -> List[Job]:
    lams = [Fraction(n) for n in SWEEP_INTEGER_LAMBDAS]
    lams += rational_lambdas(rng, SWEEP_RATIONAL_LAMBDAS)
    return [_sweep_job(lam, eps, name) for lam in lams for eps, name in SWEEPS]


def _sweep_job(lam: Fraction, eps: int, name: str) -> Job:
    def run():
        return sl2.sl2_branching_report(lam, eps, name)

    def canon(rep):
        return {"report": rep.to_json(), "EP": rep.euler_characteristic(),
                "certified": rep.certified()}

    def check(rep):
        bad = []
        if not rep.certified():
            bad.append("stabilization not certified")
        if rep.euler_characteristic() != SWEEP_EULER[(eps, name)]:
            bad.append(f"EP {rep.euler_characteristic()} != {SWEEP_EULER[(eps, name)]}")
        return bad

    return Job(f"sl2-demo lambda={lam} epsilon={eps} subpair={name}", run, canon, check)


# -- resolution: hcheck, homology, ext and h-complex jobs -------------------------

HCHECK_CUTOFFS = (4, 5, 6)
FM_RANGE = (8, 32)
GRID_DEGREES = range(4)
# h_tensor, h_cone and h_shift with their axiom checks, so that the matrix-building
# layers (kron, direct sums, tensor and cone complexes) are measured too
H_OPS = ("tensor", "cone", "shift")


def _resolution_jobs(rng: random.Random) -> List[Job]:
    jobs = [_hcheck_job(name, make().to_json(), c)
            for name, make in PAIRS.items() for c in HCHECK_CUTOFFS]
    pair = sl2.trivial_k_pair()
    ident = SubpairEmbedding.identity(pair).to_json()
    m = rng.randint(*FM_RANGE)
    module = sl2.finite_irrep(m, pair).to_json()
    jobs += [_homology_job("identity(trivial_k)", f"F{m}", ident, module),
             _ext_job("duality", f"F{m}", ident, module),
             _ext_job("chain_maps", f"F{m}", ident, module)]
    big = sl2.so2_pair()
    modules = [("F0", trivial_module(big))]
    modules += [(f"F{m}", sl2.finite_irrep_so2(m)) for m in range(1, 5)]
    for sub_name, make in sl2.SUBPAIR_CATALOG.items():
        emb = make()
        sub_doc = emb.to_json()
        for mod_name, M in modules:
            mod_doc = restrict_module(emb, M).to_json()
            jobs.append(_homology_job(sub_name, mod_name, sub_doc, mod_doc))
            jobs.append(_grid_job(sub_name, mod_name, sub_doc, mod_doc))
    jobs += [_hbuild_job(op, "so2", sl2.so2_pair().to_json(), 2) for op in H_OPS]
    return jobs


def _hcheck_job(pair_name: str, pair_doc: dict, cutoff: int) -> Job:
    def run():
        res = resolution.StandardResolution(schemas.load_pair(pair_doc), cutoff)
        h = res.hcomplex()
        problems = list(hcomplexes.check_h_axioms(h).violations)
        problems += list(res.check_exactness().violations)
        return h, problems

    def canon(out):
        h, problems = out
        return {"violations": problems, "complex": hcomplex_data(h)}

    return Job(f"hcheck pair={pair_name} cutoff={cutoff}", run, canon, lambda out: out[1])


def _load(sub_doc: dict, mod_doc: dict):
    emb = schemas.load_subpair(sub_doc)
    return emb, schemas.load_finite_module(emb.small, mod_doc)


def _all_zero(dims) -> List[str]:
    return [] if not any(dims) else [f"Whitehead vanishing fails: {dims}"]


def _homology_job(sub_name: str, mod_name: str, sub_doc: dict, mod_doc: dict) -> Job:
    def run():
        return relhomology.rel_homology(*_load(sub_doc, mod_doc))

    def check(rep):
        # homology and chains have the same Euler-Poincare characteristic
        ep = relhomology.euler_poincare(*_load(sub_doc, mod_doc))
        if rep.euler_characteristic() != ep:
            return [f"EP of homology {rep.euler_characteristic()} != EP of chains {ep}"]
        if sub_name == "identity(trivial_k)":
            return _all_zero(list(rep.dims.values()))
        return []

    return Job(f"homology subpair={sub_name} module={mod_name}", run,
               lambda rep: rep.to_json(), check)


def _ext_job(route: str, mod_name: str, sub_doc: dict, mod_doc: dict) -> Job:
    def run():
        emb, M = _load(sub_doc, mod_doc)
        top = relhomology.RelativeStandardComplex(emb, M).p_dim
        ext = (relhomology.ext_via_duality if route == "duality"
               else relhomology.ext_via_chain_maps)
        return [ext(emb, M, n) for n in range(top + 1)]

    return Job(f"ext route={route} subpair=identity(trivial_k) module={mod_name}", run,
               lambda dims: dims, _all_zero)


def _grid_job(sub_name: str, mod_name: str, sub_doc: dict, mod_doc: dict) -> Job:
    def run():
        emb, M = _load(sub_doc, mod_doc)
        duality = [relhomology.ext_via_duality(emb, M, n) for n in GRID_DEGREES]
        chain = [relhomology.ext_via_chain_maps(emb, M, n) for n in GRID_DEGREES]
        return {"duality": duality, "chain_maps": chain}

    def check(out):
        if out["duality"] != out["chain_maps"]:
            return [f"Ext routes disagree: {out}"]
        return []

    return Job(f"ext-grid subpair={sub_name} module={mod_name}", run, lambda out: out, check)


def _hbuild_job(op: str, pair_name: str, pair_doc: dict, cutoff: int) -> Job:
    def run():
        h = resolution.StandardResolution(schemas.load_pair(pair_doc), cutoff).hcomplex()
        if op == "tensor":
            built = hcomplexes.h_tensor(h, h)
        elif op == "cone":
            built = hcomplexes.h_cone(hcomplexes.HComplexMap.identity_h(h))
        else:
            built = hcomplexes.h_shift(h)
        return built, list(hcomplexes.check_h_axioms(built).violations)

    def canon(out):
        built, problems = out
        return {"violations": problems, "complex": hcomplex_data(built)}

    return Job(f"h-{op} pair={pair_name} cutoff={cutoff}", run, canon, lambda out: out[1])


WORKLOADS = {
    "sweep": Workload(_sweep_jobs, "sl2-demo lambda=4 epsilon=0 subpair=diagonal_torus"),
    "resolution": Workload(_resolution_jobs, "hcheck pair=so2 cutoff=4"),
}
