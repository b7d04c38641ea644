"""Benchmark harness for hch: seeded batch workloads, digests and tracing.

Run it as ``python3 bench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``bench/run.py``.
"""
