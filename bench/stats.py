"""Order statistics for the benchmark report.

Percentiles use the nearest-rank definition: the p-th percentile of n sorted
samples is the sample at rank ceil(p * n / 100), so it is always a measured
value, and n - rank samples lie beyond it.  A tail percentile is reported only
when at least ``MIN_BEYOND`` samples lie beyond it.
"""

from __future__ import annotations

from typing import Optional, Sequence

MIN_BEYOND = 10
TAIL_CANDIDATES = (99, 95, 90, 75, 50)


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    if n < 1 or not 0 < pct <= 100:
        raise ValueError(f"no {pct}th percentile of {n} samples")
    return max(1, -(-pct * n // 100))


def beyond(n: int, pct: int) -> int:
    """Samples strictly after the pct-th percentile's rank."""
    return n - rank(n, pct)


def percentile(samples: Sequence[float], pct: int) -> float:
    ordered = sorted(samples)
    return ordered[rank(len(ordered), pct) - 1]


def highest_percentile(n: int, candidates: Sequence[int] = TAIL_CANDIDATES,
                       min_beyond: int = MIN_BEYOND) -> Optional[int]:
    """The highest candidate percentile with at least min_beyond samples beyond it."""
    for pct in sorted(candidates, reverse=True):
        if n >= 1 and beyond(n, pct) >= min_beyond:
            return pct
    return None

