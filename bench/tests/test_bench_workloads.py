"""Seeded job lists, exact-output digests and the traced layers."""

import json
from fractions import Fraction
from pathlib import Path

import hch.bands
import hch.linalg
from hch.linalg import Matrix
from hch.scalars import Scalar

from bench import layers, workloads
from bench.digest import digest
from bench.spans import Tracer

REFERENCE = Path(__file__).resolve().parents[1] / "reference_digests.json"
DEFAULT_SEED = json.loads(REFERENCE.read_text())["seed"]
CHEAP = ("homology subpair=so2 module=F2", "ext-grid subpair=diagonal_torus module=F4",
         "h-shift pair=so2 cutoff=2", "h-cone pair=so2 cutoff=2")


def _jobs(workload, seed=DEFAULT_SEED):
    return {job.id: job for job in workloads.generate(workload, seed)}


def test_job_counts_and_seeding():
    for workload, count in (("sweep", 75), ("resolution", 45)):
        a = [job.id for job in workloads.generate(workload, 3)]
        assert len(a) == len(set(a)) == count
        assert a == [job.id for job in workloads.generate(workload, 3)]
        b = [job.id for job in workloads.generate(workload, 4)]
        assert a != b  # at least the order differs
    fixed = {job_id for job_id in _jobs("sweep", 3) if "/" not in job_id}
    assert fixed == {job_id for job_id in _jobs("sweep", 4) if "/" not in job_id}


def test_reference_covers_every_job_of_its_seed_and_the_cold_jobs():
    reference = json.loads(REFERENCE.read_text())["digests"]
    assert set(reference) == set(workloads.WORKLOADS)
    for workload, spec in workloads.WORKLOADS.items():
        assert set(_jobs(workload)) == set(reference[workload])
        for seed in (2, 3):
            assert spec.cold_job in _jobs(workload, seed)


def test_builds_per_ext_job_counts_ext_jobs_only():
    tracer = Tracer()
    for kind, builds in (("homology", 1), ("ext", 3), ("ext-grid", 5), ("hcheck", 0)):
        with tracer.span(f"job.{kind}"):
            for _ in range(builds):
                with tracer.span("relhomology.complex"):
                    pass
    m = layers.pass_metrics(tracer, 0, len(tracer))
    assert m["relhomology.complex.builds"] == 9
    assert m["relhomology.complex.builds_per_ext_job"] == 4


def test_rational_lambdas_are_distinct_and_not_integral():
    import random
    lams = workloads.rational_lambdas(random.Random(0), 8)
    assert len(set(lams)) == 8
    assert all(isinstance(x, Fraction) and x.denominator in range(2, 10)
               and -4 <= x <= 12 for x in lams)


def test_digest_is_stable_across_two_evaluations():
    jobs = _jobs("resolution")
    reference = json.loads(REFERENCE.read_text())["digests"]["resolution"]
    for job_id in CHEAP:
        job = jobs[job_id]
        first, second = job.run(), job.run()
        assert job.check(first) == [] and job.check(second) == []
        d = digest(job.canon(first))
        assert d == digest(job.canon(second))
        assert reference[job_id] == d


def test_digest_sees_every_exact_digit():
    m = Matrix(2, 2, {(0, 0): Scalar(Fraction(1, 3)), (1, 1): Scalar(0, 1)})
    n = Matrix(2, 2, {(0, 0): Scalar(Fraction(1, 3)), (1, 1): Scalar(0, -1)})
    assert digest(m) != digest(n)
    assert digest({"a": m}) == digest({"a": Matrix(2, 2, dict(m.entries))})


def test_checks_reject_wrong_results():
    grid = _jobs("resolution")["ext-grid subpair=so2 module=F1"]
    assert grid.check({"duality": [1, 0], "chain_maps": [0, 0]})
    ext = next(job for job_id, job in _jobs("resolution").items()
               if job_id.startswith("ext route=duality"))
    assert ext.check([0, 1, 0, 0])


def test_traced_sweep_job_and_clean_uninstall():
    job = _jobs("sweep")["sl2-demo lambda=4 epsilon=0 subpair=diagonal_torus"]
    kernel_basis = hch.linalg.kernel_basis
    tracer = Tracer()
    inst = layers.install(tracer, layers.ScalarPool())
    try:
        with tracer.span("job"):
            rep = job.run()
    finally:
        inst.uninstall()
    assert hch.linalg.kernel_basis is kernel_basis is hch.bands.kernel_basis
    assert job.check(rep) == []
    m = layers.pass_metrics(tracer, 0, len(tracer))
    assert m["sl2.principal_series.calls"] == 1
    assert m["bands.windows"] == sum(len(s.windows) for s in rep.stabilization.values())
    assert m["linalg.elim.calls"] >= m["bands.windows"]
    assert m["polarfields.apply.calls"] > 0 and m["poly.interpolate.calls"] > 0
    assert set(m) | set(layers.SCALAR_METRICS) | {layers.OVERHEAD} == set(layers.metric_names())
