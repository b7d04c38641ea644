#!/usr/bin/env python3
"""Benchmark for hch: seeded batch workloads with exact-output checks.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all        # every workload, each in its own process

One client runs the workload's jobs back to back (a closed loop).  A pass
runs every job of the workload once; whole passes repeat while another one
fits in --seconds (at least MIN_PASSES of them).  Every job's exact output
is digested and must match its digest in bench/reference_digests.json and
its own earlier passes, and every result is checked against the mathematical
invariants in bench/workloads.py, whatever the seed.  At the seed of the
reference file every job must have a reference digest; at other seeds the
jobs whose inputs do not depend on the seed are still compared, and the run
record keeps every digest so that two commits can be compared.

--trace 0 reports the end-to-end metrics, with tracing off:
  wall_s       time to run every job once: the sum over the workload's jobs
               of each job's median latency over the run's passes
  job_s.p50    median job latency over every job run
  job_s.p90    90th percentile (nearest rank) of job latency
  cold_start_ratio
               median over COLD_SAMPLES processes of the latency of the
               workload's cold job (bench/workloads.py) run as the first job
               of the process, as a user who runs one job per invocation
               waits for it, divided by its latency when the process runs it
               again right after.  Work that a cache saves later jobs is
               missing from the warm passes above and raises this ratio.
               The samples are this process and fresh ones started
               COLD_PER_PASS before each pass.  The two runs of a sample are
               back to back, so the machine's changes of speed, which move
               latencies in seconds by a quarter between runs, cancel
  setup_s      median over the same processes of the time from the start of
               this script to the end of input generation (import hch and
               building the inputs)
  peak_rss_mb  ru_maxrss of the measuring process
failed_frac (failed / attempted) is printed in the report; the result line
carries it as "failed" and "attempted".

--trace 1 alternates traced and untraced passes, starting with a traced one
before any job has run, and reports the per-layer metrics of bench/layers.py:
counts from the first traced pass, times as the median over traced passes, and
trace.overhead_frac = median traced pass / median untraced pass - 1.  Counts
that differ between traced passes (work that later passes skip) are listed in
the report and the run record; cold_start_ratio is the metric that bounds what
such work costs.  The spans are written to .bench_out/.

HCH_MAX_WINDOW is removed from the environment before anything runs.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Without the hch sources next to bench/ the script exits
with status 2 and prints no result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"
DEFAULT_SEED = 1
COLD_SAMPLES = 11
COLD_PER_PASS = 2
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170
EXIT_NO_PROGRAM = 2

E2E_UNITS = {"wall_s": "s", "job_s.p50": "s", "job_s.p90": "s",
             "cold_start_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    """The hch sources are not where the benchmark expects them."""


def load_program():
    """Import hch from ROOT/src (never from elsewhere) and the workload module."""
    sys.path[0:1] = [str(SRC), str(ROOT)]
    try:
        import hch
    except ImportError as e:
        raise ProgramMissing(f"cannot import hch from {SRC}: {e}") from None
    if Path(hch.__file__).resolve().parent != (SRC / "hch").resolve():
        raise ProgramMissing(f"hch was imported from {hch.__file__}, not from {SRC}")
    from bench import workloads
    return workloads


class Runner:
    """Runs jobs, times them, and checks every result."""

    def __init__(self, reference, strict):
        """``strict``: a job without a reference digest fails."""
        from bench.digest import digest
        self._digest = digest
        self.reference = reference
        self.strict = strict
        self.digests = {}
        self.latencies = []
        self.by_job = {}
        self.attempted = 0
        self.failures = []

    def run_pass(self, jobs, tracer=None) -> float:
        return sum(self.run_job(job, tracer) for job in jobs)

    def run_job(self, job, tracer=None) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.span(f"job.{job.kind}"):
                    out = job.run()
        except Exception:
            dt = time.perf_counter() - t0
            self.failures.append((job.id, traceback.format_exc()))
            return dt
        dt = time.perf_counter() - t0
        if tracer is None:
            reason = self._verify(job, out)
        else:
            # checks call hch too; their calls are not part of the job
            tracer.active = False
            try:
                reason = self._verify(job, out)
            finally:
                tracer.active = True
        if reason:
            self.failures.append((job.id, reason))
        else:
            self.latencies.append(dt)
            self.by_job.setdefault(job.id, []).append(dt)
        return dt

    def _verify(self, job, out):
        try:
            problems = job.check(out)
            d = self._digest(job.canon(out))
        except Exception:
            return traceback.format_exc()
        if problems:
            return "; ".join(problems)
        first = self.digests.setdefault(job.id, d)
        if d != first:
            return f"digest {d} differs from this run's first {first}"
        ref = self.reference.get(job.id)
        if ref is None and self.strict:
            return "no reference digest for this job at the reference seed"
        if ref is not None and d != ref:
            return f"digest {d} differs from the reference {ref}"
        return None


# -- measuring -----------------------------------------------------------------


def fits(start: float, passes, seconds: float) -> bool:
    """Whether one more pass, as long as the longest so far, ends within `seconds`."""
    return time.perf_counter() - start + max(passes, default=0.0) <= seconds


def measure_plain(args, jobs, runner, colds):
    """Whole passes, as many as fit in --seconds, at least MIN_PASSES.

    Fresh processes add to the cold-job samples ``colds`` before each pass,
    and after the last one until there are COLD_SAMPLES.
    """
    passes, steps = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or fits(start, steps, args.seconds):
        t0 = time.perf_counter()
        for _ in range(min(COLD_PER_PASS, COLD_SAMPLES - len(colds))):
            cold_sample(args, runner, colds)
        passes.append(runner.run_pass(jobs))
        steps.append(time.perf_counter() - t0)
    while len(colds) < COLD_SAMPLES:
        cold_sample(args, runner, colds)
    return passes


def cold_job(workloads, workload, jobs):
    return next(job for job in jobs if job.id == workloads.WORKLOADS[workload].cold_job)


def cold_start(job, runner):
    """Latencies of the job as this process's first job and right again."""
    return runner.run_job(job), runner.run_job(job)


def cold_sample(args, runner, colds):
    """Add (set-up s, first run s, second run s) of a fresh process to colds.

    Its runs count in the runner's attempted jobs, and their failures in its
    failures.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--cold-sample"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cold-sample process failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    colds.append((out["setup_s"], *out["cold_start_s"]))
    runner.attempted += 2
    runner.failures += [tuple(f) for f in out["failures"]]


def end_to_end(runner, colds):
    from bench.stats import percentile
    lat = runner.latencies or [float("nan")]
    return {
        "wall_s": sum(statistics.median(ts) for ts in runner.by_job.values()),
        "job_s.p50": percentile(lat, 50),
        "job_s.p90": percentile(lat, 90),
        "cold_start_ratio": statistics.median(first / again for _, first, again in colds),
        "setup_s": statistics.median(s for s, _, _ in colds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(args, jobs, runner):
    """Alternate traced and untraced passes; per-layer metrics of the traced ones.

    The first pass is traced, so its counts include work done on first use
    only, and a count of work that later passes skip differs between traced
    passes.
    """
    from bench import layers
    from bench.spans import Tracer
    tracer = Tracer()
    pool = layers.ScalarPool(seed=args.seed)
    plain, traced, bounds = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or fits(start, plain + traced, args.seconds):
        if len(plain) < len(traced):
            plain.append(runner.run_pass(jobs))
            continue
        inst = layers.install(tracer, pool)
        lo = len(tracer)
        try:
            traced.append(runner.run_pass(jobs, tracer))
        finally:
            inst.uninstall()
        bounds.append((lo, len(tracer)))
    per_pass = [layers.pass_metrics(tracer, lo, hi) for lo, hi in bounds]
    metrics = {}
    unsteady = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if layers.is_timing(name):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady[name] = values
    metrics.update(layers.scalar_timings(pool))
    metrics[layers.OVERHEAD] = statistics.median(traced) / statistics.median(plain) - 1
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path, [(lo, f"pass{k}") for k, (lo, _) in enumerate(bounds)])
    info = {"untraced_passes_s": plain, "traced_passes_s": traced, "spans": len(tracer),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "counts_differing_between_passes": unsteady}
    return metrics, info


# -- reporting -----------------------------------------------------------------


def environment(max_window):
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit,
            "HCH_MAX_WINDOW": "unset" if max_window is None else f"unset (was {max_window})"}


def report(args, env, jobs, runner, metrics, units, info):
    from bench.stats import highest_percentile
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} python={env['python']} nproc={env['nproc']} "
             f"commit={env['commit']} HCH_MAX_WINDOW={env['HCH_MAX_WINDOW']}",
             f"jobs per pass={len(jobs)} attempted={runner.attempted} "
             f"failed={len(runner.failures)} "
             f"failed_frac={len(runner.failures) / max(runner.attempted, 1):.4f}"]
    n = len(runner.latencies)
    if not args.trace:
        top = highest_percentile(n)
        lines.append(f"job samples={n}; highest percentile with >=10 samples beyond it: "
                     f"{'none' if top is None else f'p{top}'}")
        colds = info["cold_samples_s"]
        lines.append(f"cold job, median of {len(colds)} processes: first run "
                     f"{statistics.median(c[1] for c in colds):.4g} s, again "
                     f"{statistics.median(c[2] for c in colds):.4g} s")
    for name, value in metrics.items():
        lines.append(f"  {name:<40} {value:>16.6g} {units[name]}")
    if args.trace:
        selfs = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
        total = sum(selfs.values()) or 1.0
        lines.append("share of attributed self time:")
        for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
            if v:
                lines.append(f"  {k[:-len('.self_s')]:<32} {100 * v / total:6.2f}%")
        lines.append(f"spans={info['spans']} written to {info['spans_file']}")
    for name, values in info.get("counts_differing_between_passes", {}).items():
        lines.append(f"count differing between traced passes: {name} {values}")
    for job_id, reason in runner.failures[:5]:
        lines.append(f"FAILED {job_id}: {reason.strip().splitlines()[-1]}")
    print("\n".join(lines))


def load_reference(workload, seed):
    """The workload's reference digests, and whether they cover every job at this seed."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    if workload not in ref["digests"]:
        raise RuntimeError(f"{REFERENCE.name} has no digests for workload {workload!r}")
    return ref["digests"][workload], seed == ref["seed"]


def run_workload(args, workloads, jobs, setup_own):
    env = environment(args.max_window)
    reference = load_reference(args.workload, args.seed)
    runner = Runner(*reference)
    if args.trace:
        metrics, info = measure_traced(args, jobs, runner)
        from bench import layers
        units = {name: layers.unit(name) for name in metrics}
    else:
        # the cold job first, before this process has run any other job; it
        # gets a runner of its own so that its latency stays out of the passes
        cold = Runner(*reference)
        colds = [(setup_own, *cold_start(cold_job(workloads, args.workload, jobs), cold))]
        runner.attempted += cold.attempted
        runner.failures += cold.failures
        passes = measure_plain(args, jobs, runner, colds)
        metrics = end_to_end(runner, colds)
        units = E2E_UNITS
        info = {"passes_s": passes, "cold_samples_s": colds}
    report(args, env, jobs, runner, metrics, units, info)
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "metrics": metrics,
              "info": info, "digests": runner.digests,
              "job_median_s": {j: statistics.median(ts) for j, ts in sorted(runner.by_job.items())},
              "failures": [{"job": j, "reason": r} for j, r in runner.failures]}
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    failed = len(runner.failures)
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args, names):
    """Each workload in a fresh process; one table of every metric."""
    results = {}
    for w in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + args.seconds)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {w} exited with status {proc.returncode}")
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':<40} {'unit':<6} " + " ".join(f"{w:>14}" for w in names))
    rows = {"failed_frac": ("ratio", {w: r["failed"] / r["attempted"]
                                      for w, r in results.items()})}
    for w, r in results.items():
        for name, m in r["metrics"].items():
            rows.setdefault(name, (m["unit"], {}))[1][w] = m["value"]
    for name, (unit, by_w) in rows.items():
        print(f"{name:<40} {unit:<6} "
              + " ".join(f"{by_w.get(w, float('nan')):>14.6g}" for w in names))
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()}}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="hch benchmark")
    p.add_argument("--workload", default="all",
                   help="a workload of bench/workloads.py, or all of them")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cold-sample", action="store_true",
                   help="run only the workload's cold job, twice; print set-up and job times")
    return p, p.parse_args(argv)


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    args.max_window = os.environ.pop("HCH_MAX_WINDOW", None)
    try:
        workloads = load_program()
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    names = tuple(workloads.WORKLOADS)
    if args.workload not in names + ("all",):
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    if args.workload == "all":
        result = run_all(args, names)
    else:
        jobs = workloads.generate(args.workload, args.seed)
        setup_own = time.perf_counter() - _T0
        if args.cold_sample:
            runner = Runner(*load_reference(args.workload, args.seed))
            times = cold_start(cold_job(workloads, args.workload, jobs), runner)
            print(json.dumps({"setup_s": setup_own, "cold_start_s": times,
                              "failures": runner.failures}))
            return 0
        result = run_workload(args, workloads, jobs, setup_own)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
