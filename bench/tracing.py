"""Spans around the program's public functions, installed from outside.

Each target function is replaced, in every hopfharmonic namespace that holds
it, by one wrapper that records a span (name, start, end, parent, item).
Callers therefore reach the wrapper however they look the name up: through
the caller module's globals (``existence.count_real_roots``), through names
``cli`` imported, and through the lazy ``from .residual import residual`` in
``quartic._refine``, which reads the attribute of the module object in
``sys.modules``.  The package attribute ``hopfharmonic.residual`` is the
function, not the module, because ``__init__`` rebinds the name, so modules
are always taken from ``sys.modules``.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous and single-threaded, so children never
overlap.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "hopfharmonic"
TARGETS = {
    "families": ("curvature_spectrum", "trace_shape", "trace_shape_squared", "spectrum_arrays"),
    "residual": ("residual", "residual_grid", "chn_scan"),
    "quartic": ("build_quartic", "count_real_roots", "isolate_and_refine", "root_to_radius"),
    "existence": ("count_solutions", "probe_values"),
    "biharmonic": ("stability_condition", "biharmonic_radii", "index_threshold_scan"),
    "cli": ("main",),
}


class Tracer:
    """Installs span-recording wrappers and summarises one pass of spans."""

    def __init__(self):
        self.modules = {
            short: sys.modules[f"{PACKAGE}.{short}"] for short in TARGETS if f"{PACKAGE}.{short}" in sys.modules
        }
        self.namespaces = [sys.modules[PACKAGE], *self.modules.values()]
        self._hopf_error = sys.modules[f"{PACKAGE}.errors"].HopfError
        self._mp = sys.modules["mpmath"].mp
        self._observers = {
            "quartic.isolate_and_refine": self._observe_certificates,
            "residual.residual_grid": self._observe_grid,
            "families.curvature_spectrum": self._observe_precision,
        }
        self._stack = []
        self._saved = []
        self.spans = []
        self.item = -1
        self.reset()

    def reset(self):
        """Start a new pass: drop spans and observations."""
        self.spans.clear()
        self.raised = Counter()
        self.observed = Counter()
        self.den_bits = []
        self.width_log2_max = None
        self.dps_max = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.item])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except self._hopf_error:
                self.raised[name] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for short, names in TARGETS.items():
            if short in self.modules:
                for fname in names:
                    fn = getattr(self.modules[short], fname)
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        for namespace in self.namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])

    def uninstall(self):
        while self._saved:
            namespace, attr, value = self._saved.pop()
            setattr(namespace, attr, value)

    # -- work counts observed at the boundaries -----------------------------

    def _observe_certificates(self, certs):
        for cert in certs:
            lo, hi = cert.isolating_interval
            self.observed["quartic.certificates"] += 1
            # floor(log2(denominator)): the bisection depth for dyadic endpoints from (0, 1)
            self.den_bits += [lo.denominator.bit_length() - 1, hi.denominator.bit_length() - 1]
            width = hi - lo
            log2 = math.log2(width.numerator) - math.log2(width.denominator)
            self.width_log2_max = log2 if self.width_log2_max is None else max(self.width_log2_max, log2)
            if cert.residual_at_radius is not None:
                res = float(abs(cert.residual_at_radius))
                self.observed["residual.abs_max"] = max(self.observed["residual.abs_max"], res)

    def _observe_grid(self, values):
        self.observed["residual.residual_grid.points"] += len(values)

    def _observe_precision(self, spectrum):
        self.dps_max = max(self.dps_max, self._mp.dps)

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Self time (ms) and calls per span name, plus the pass's work counts."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = defaultdict(int)
        calls = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[index]
            calls[name] += 1
        den_bits = self.den_bits
        return {
            "self_ms": {name: ns / 1e6 for name, ns in self_ns.items()},
            "counts": {
                **{f"{name}.calls": n for name, n in calls.items()},
                **dict(self.observed),
                "existence.probe_values.refused": (
                    self.raised["existence.probe_values"] / calls["existence.probe_values"]
                    if calls["existence.probe_values"] else 0.0
                ),
                "quartic.endpoint_den_bits_mean": sum(den_bits) / len(den_bits) if den_bits else 0.0,
                "quartic.interval_width_log2_max": self.width_log2_max if self.width_log2_max is not None else 0.0,
                "families.mp_dps": self.dps_max,
            },
        }

    def write_spans(self, path):
        """Write the current pass's spans as JSON: [name, start_ns, end_ns, parent, item]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "item"], "spans": self.spans}, fh)
            fh.write("\n")
