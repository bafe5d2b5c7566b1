"""Spans around knotdist's public functions, recorded from outside.

Each listed function is wrapped at every binding in the knotdist.*
modules, so a call made through another module's import is seen too
(report.gromov1_distortion and engine.vertex_distortion inside
engine.gromov1_distortion are separate bindings of engine functions).
A span records its key, start, end, parent and whether it raised, plus
the counts the return value carries: bands swept, witnesses, JSON bytes.

A span's key is its module and function name.  A call nested directly in
a span of the same module is part of that layer's work and is keyed under
its parent, so the doubled-knot sweep inside gromov1_distortion is
engine.gromov1_distortion.vertex_distortion, not engine.vertex_distortion.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# Layer -> public functions wrapped.  engine.euclidean_vertex_lower_bound
# is on no CLI path and is not measured.
TARGETS = {
    "cli": ("main",),
    "knotfile": ("parse_knot",),
    "lattice": ("validate", "scale"),
    "engine": ("vertex_distortion", "vertex_distortion_with_heatmap", "gromov1_distortion"),
    "midpoint_analysis": ("certify_unknot",),
    "report": ("build_report", "render_json"),
    "generators": ("rectangle", "torus_knot", "random_polygon"),
    "metrics": ("arc_distance", "arc_position", "distortion_ratio",
                "euclidean_ratio_squared", "taxicab_distance"),
}

# Sweeps whose report gives pairs_examined = bands * (knot.n * factor).
SWEEP_FACTOR = {"vertex_distortion": 1, "vertex_distortion_with_heatmap": 1,
                "gromov1_distortion": 2}


class Span:
    __slots__ = ("key", "layer", "parent", "start", "end", "error", "info")

    def __init__(self, key, layer, parent, start):
        self.key, self.layer, self.parent, self.start = key, layer, parent, start
        self.end = start
        self.error = False
        self.info = None


def _counts(fname, args, result):
    """Counts a wrapped function's result carries, or None."""
    if fname == "render_json":
        return {"json_bytes": len(result.encode())}
    factor = SWEEP_FACTOR.get(fname)
    if factor is None:
        return None
    report = result[0] if isinstance(result, tuple) else result
    size = args[0].n * factor
    # ceil: a sweep may count the antipodal band as n/2 pairs
    return {"bands": math.ceil(report.pairs_examined / size),
            "max_bands": size // 2,
            "witnesses": len(report.witnesses)}


class Tracer:
    """Records spans while enabled; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.enabled = False
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "knotdist" or name.startswith("knotdist.")]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"knotdist.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(layer, fname, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, layer, fname, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            if parent >= 0 and tracer.spans[parent].layer == layer:
                key = f"{tracer.spans[parent].key}.{fname}"
            else:
                key = f"{layer}.{fname}"
            span = Span(key, layer, parent, time.perf_counter())
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            try:
                span.info = _counts(fname, args, result)
            except (AttributeError, IndexError, TypeError, ZeroDivisionError):
                pass  # a changed return type loses its counts, not the run
            return result

        return wrapper

    def dump(self) -> list:
        """Spans as [key, parent, start_s, end_s, error, counts] rows."""
        return [[s.key, s.parent, s.start, s.end, s.error, s.info] for s in self.spans]


def summarize(spans: list, ranges) -> dict:
    """Per-key totals over the spans in the given (first, end) index
    ranges, each holding whole span trees: calls, seconds, self seconds,
    seconds in the key's own layer, errors and summed counts."""
    out: dict = {}
    for first, end in ranges:
        child_total = defaultdict(float)
        child_other = defaultdict(float)
        for i in range(first, end):
            s = spans[i]
            if s.parent >= first:
                dur = s.end - s.start
                child_total[s.parent] += dur
                if spans[s.parent].layer != s.layer:
                    child_other[s.parent] += dur
        for i in range(first, end):
            s = spans[i]
            dur = s.end - s.start
            agg = out.setdefault(s.key, defaultdict(float))
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_total[i]
            agg["layer_s"] += dur - child_other[i]
            agg["errors"] += s.error
            for name, value in (s.info or {}).items():
                agg[name] += value
    return out
