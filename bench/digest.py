"""Exact-output digests: canonical encoding of hch results, then SHA-256.

Scalars are encoded as the exact strings of their rational parts, matrices
by shape and sorted entries, so two results share a digest exactly when they
are equal as exact data.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from hch.linalg import Matrix
from hch.scalars import Scalar


def encode(x):
    """A JSON-ready canonical form of a result built from hch values."""
    if isinstance(x, Scalar):
        return [str(x.re), str(x.im)]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Matrix):
        return [x.rows, x.cols,
                [[r, c, str(v.re), str(v.im)] for (r, c), v in sorted(x.entries.items())]]
    if isinstance(x, dict):
        return [[encode(k), encode(v)] for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"no canonical encoding for {type(x).__name__}")


def hcomplex_data(h) -> dict:
    """Term dimensions, every differential and every contraction of an HComplex."""
    base = h.base
    return {
        "dims": {n: base.dim_at(n) for n in base.degrees()},
        "diffs": dict(base.diffs),
        "contractions": {t: dict(per) for t, per in h.i_maps.items()},
    }


def digest(data) -> str:
    text = json.dumps(encode(data), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
