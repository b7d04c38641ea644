"""In-memory span tracing, installed from outside the traced program.

A span records a layer name, its parent span, start and end times and
optional counts.  Wrappers are installed only for the traced run: a wrapped
function is rebound under every name that holds it in the given modules (so
``hch.bands.kernel_basis`` is traced as well as ``hch.linalg.kernel_basis``),
and a wrapped method is replaced on its class.  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Counter = Callable[[tuple, object], Dict[str, float]]


class Tracer:
    """Spans kept as parallel arrays; the open spans form a stack.

    While ``active`` is false, wrapped calls run without recording spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = True
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: Dict[int, Dict[str, float]] = {}
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def self_times(self, lo: int = 0, hi: Optional[int] = None) -> List[float]:
        """Duration of each span in [lo, hi) minus the durations of its children.

        Spans nest strictly in one thread, so the direct children of a span
        cover disjoint parts of its interval; recursion needs no special case.
        """
        hi = len(self) if hi is None else hi
        out = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                out[p - lo] -= self.end[i] - self.start[i]
        return out

    def totals(self, lo: int = 0, hi: Optional[int] = None,
               max_keys: Iterable[str] = ()) -> Dict[str, Dict[str, float]]:
        """Per name: calls, self_s, and the counts of its spans summed (or maxed)."""
        hi = len(self) if hi is None else hi
        max_keys = set(max_keys)
        out: Dict[str, Dict[str, float]] = {}
        for k, st in enumerate(self.self_times(lo, hi)):
            i = lo + k
            agg = out.setdefault(self.name(i), {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += st
            for key, v in self.attrs.get(i, {}).items():
                if key in max_keys:
                    agg[key] = max(agg.get(key, v), v)
                else:
                    agg[key] = agg.get(key, 0) + v
        return out

    def write(self, path, tags: Sequence[Tuple[int, str]] = ()) -> None:
        """Dump every span as gzipped TSV; ``tags`` labels span ranges by start index."""
        bounds = sorted(tags)
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tsegment\tcounts\n")
            seg = ""
            for i in range(len(self)):
                while bounds and bounds[0][0] <= i:
                    seg = bounds.pop(0)[1]
                counts = ",".join(f"{k}={v}" for k, v in sorted(self.attrs.get(i, {}).items()))
                fh.write(f"{i}\t{self.parent[i]}\t{self.name(i)}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{seg}\t{counts}\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self.idx

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def wrap(tracer: Tracer, name: str, fn: Callable, counter: Optional[Counter] = None):
    """fn inside a span; the counter sees (args, result) after the span closes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            tracer.attrs[idx] = counter(args, result)
        return result

    return wrapper


class Installation:
    """Bindings replaced by wrappers, restored by ``uninstall``."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def function(self, tracer: Tracer, name: str, fn: Callable, modules: Iterable,
                 counter: Optional[Counter] = None) -> int:
        """Rebind fn under every name that holds it in the modules; returns the count."""
        wrapper = wrap(tracer, name, fn, counter)
        hits = 0
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{fn.__qualname__} is bound in none of the modules")
        return hits

    def method(self, tracer: Tracer, name: str, cls: type, attr: str,
               counter: Optional[Counter] = None) -> None:
        fn = cls.__dict__[attr]
        self._saved.append((cls, attr, fn))
        setattr(cls, attr, wrap(tracer, name, fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
