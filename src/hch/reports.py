"""Homology reports: per-degree dimensions, representatives, stabilization data."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from . import signs


@dataclass
class Stabilization:
    windows: List[int]
    dims_per_window: List[int]
    certified: bool

    def to_json(self):
        return {
            "windows": self.windows,
            "dims_per_window": self.dims_per_window,
            "certified": self.certified,
        }


@dataclass
class HomologyReport:
    """Per-degree homology dimensions with representatives.

    Representatives are coordinate vectors for finite computations, or sparse
    {K-type index: coefficient} maps for band computations.  Every band
    stabilization entry is certified: its windows W = max(16, N*) and W + 8
    lie past the operator's root bound N* (``bands.root_bound``), past which
    no window changes a dimension, and windows that disagree raise
    ``bands.DegenerateBandError`` instead of giving an entry.
    """

    dims: Dict[int, int] = field(default_factory=dict)
    representatives: Dict[int, list] = field(default_factory=dict)
    stabilization: Dict[int, Stabilization] = field(default_factory=dict)

    def certified(self) -> bool:
        return all(s.certified for s in self.stabilization.values())

    def euler_characteristic(self) -> int:
        return sum(signs.degree_sign(n) * d for n, d in self.dims.items())

    def to_json(self):
        reps = {}
        for n, vs in self.representatives.items():
            out = []
            for v in vs:
                if isinstance(v, dict):
                    out.append({str(k): c.to_json() for k, c in sorted(v.items())})
                else:
                    out.append([c.to_json() for c in v])
            reps[str(n)] = out
        return {
            "dims": {str(n): d for n, d in sorted(self.dims.items())},
            "representatives": reps,
            "stabilization": {str(n): s.to_json() for n, s in sorted(self.stabilization.items())},
        }
