"""Spans around the calls into each juliareal layer, for the traced run.

A traced function is replaced everywhere it is looked up: in its own module
and in every juliareal module that imported it by name (``classifier`` holds
its own reference to ``real_roots_ex``, ``lattes`` to ``roots_shifted``, and
so on); ``Polynomial.iterate`` is replaced on the class.  The program's
files are not changed.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["targets"]))


def _points(args, kwargs, result):
    return int(result.points.size)


# (span name, module, attribute, metrics reported, work counter)
TARGETS = [
    ("poly.iterate", "juliareal.poly", "Polynomial.iterate", ("calls", "ms"), None),
    ("poly.sylvester_resultant", "juliareal.poly", "sylvester_resultant", ("calls", "ms"), None),
    ("roots.roots_shifted", "juliareal.roots", "roots_shifted",
     ("calls", "rows", "ms", "rows_per_call"), _rows),
    ("roots.complex_roots", "juliareal.roots", "complex_roots", ("calls", "ms"), None),
    ("roots.real_roots_ex", "juliareal.roots", "real_roots_ex", ("calls", "ms"), None),
    ("roots.all_real_shifted", "juliareal.roots", "all_real_shifted",
     ("calls", "rows", "ms"), _rows),
    ("classifier.classify_real_julia", "juliareal.classifier", "classify_real_julia",
     ("calls", "ms", "self_ms"), None),
    ("classifier.critical_interval", "juliareal.classifier", "critical_interval",
     ("calls", "ms", "self_ms"), None),
    ("classifier.real_fixed_points", "juliareal.classifier", "real_fixed_points",
     ("calls", "ms"), None),
    ("cubic_region.region_scan", "juliareal.cubic_region", "region_scan",
     ("calls", "ms", "self_ms"), None),
    ("orbit.backward_orbit", "juliareal.orbit", "backward_orbit",
     ("calls", "points", "ms", "self_ms"), _points),
    ("orbit.check_non_exceptional", "juliareal.orbit", "check_non_exceptional",
     ("calls", "ms"), None),
    ("orbit.orbit_status", "juliareal.orbit", "orbit_status", ("calls", "ms"), None),
    ("heights.canonical_height", "juliareal.heights", "canonical_height", ("calls", "ms"), None),
    ("heights.functional_equation_residual", "juliareal.heights",
     "functional_equation_residual", ("calls", "ms"), None),
    ("lattes.duplication_lattes", "juliareal.lattes", "duplication_lattes", ("calls", "ms"), None),
    ("lattes.lattes_critical_points", "juliareal.lattes", "lattes_critical_points",
     ("calls", "ms"), None),
    ("lattes.real_surjectivity", "juliareal.lattes", "real_surjectivity",
     ("calls", "ms", "self_ms"), None),
    ("lattes.rational_orbit_status", "juliareal.lattes", "rational_orbit_status",
     ("calls", "ms"), None),
    ("lattes.certify_nonabelian", "juliareal.lattes", "certify_nonabelian",
     ("calls", "ms", "self_ms"), None),
]

# all_real_shifted rows per call made from critical_interval: the batch size
# of the classifier's cross-check
CROSS_CHECK = ("classifier.cross_check_rows_per_call", "roots.all_real_shifted",
               "classifier.critical_interval")

UNITS = {"calls": "calls/op", "rows": "rows/op", "points": "points/op", "ms": "ms/op",
         "self_ms": "ms/op", "rows_per_call": "rows/call"}


def metric_names():
    """Every per-layer metric a traced run reports, in order."""
    names = [f"{span}.{field}" for span, _, _, fields, _ in TARGETS for field in fields]
    return names + [CROSS_CHECK[0], "trace.overhead_pct"]


class Tracer:
    """Records one span per call of every target while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        # (name index, start s, duration s, self s, parent span index, work count)
        self.spans = []
        self._stack = []        # [span index, seconds covered by children]
        self._patches = []      # (owner, attribute, original)

    def _wrap(self, index, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            span = len(self.spans)
            self.spans.append(None)
            frame = [span, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                count = counter(args, kwargs, result) if counter and result is not None else 0
                self.spans[span] = (index, start, duration, duration - frame[1], parent, count)
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "juliareal" or name.startswith("juliareal."))]
        for index, (_, module_name, attr, _, counter) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            # a function the program no longer has simply reads 0
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = vars(getattr(module, cls_name, object)).get(meth)
                if original is not None:
                    self._patch(getattr(module, cls_name), meth, original,
                                self._wrap(index, original, counter))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(index, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, ops):
        """Per-layer totals divided by the number of traced operations."""
        calls = defaultdict(int)
        work = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        cross_calls = cross_rows = 0
        cross_index = self.names.index(CROSS_CHECK[1])
        parent_index = self.names.index(CROSS_CHECK[2])
        for index, _, duration, self_s, parent, count in self.spans:
            calls[index] += 1
            work[index] += count
            busy[index] += duration
            own[index] += self_s
            if index == cross_index and parent >= 0 and self.spans[parent][0] == parent_index:
                cross_calls += 1
                cross_rows += count
        out = {}
        for index, (span, _, _, fields, _) in enumerate(TARGETS):
            values = {
                "calls": calls[index] / ops,
                "rows": work[index] / ops,
                "points": work[index] / ops,
                "ms": 1e3 * busy[index] / ops,
                "self_ms": 1e3 * own[index] / ops,
                "rows_per_call": work[index] / calls[index] if calls[index] else 0.0,
            }
            for field in fields:
                out[f"{span}.{field}"] = {"value": values[field], "unit": UNITS[field]}
        out[CROSS_CHECK[0]] = {"value": cross_rows / cross_calls if cross_calls else 0.0,
                               "unit": "rows/call"}
        return out

    def dump(self):
        """Spans as JSON-ready rows: name, start, duration, self time (us), parent, count."""
        return {"names": self.names,
                "spans": [[i, round(t * 1e6), round(d * 1e6), round(s * 1e6), p, c]
                          for i, t, d, s, p, c in self.spans]}
