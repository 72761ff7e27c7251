"""Span tracer for the benchmark's traced pass.

`Tracer.installed()` swaps each layer's public functions for wrappers that
record a span (name, parent span, start, end) and a few counts.  A function
is rebound in every zeipel module namespace that holds it, since several are
imported by name (`dh1_true` into `vonzeipel`, `zonal_accel` and the
conversions into `propagator`, `kepler_solve` into `cli`); methods are
rebound on their class.  Spans stay in memory; `metrics()` derives per-layer counts and
self times (span duration minus the time its child spans cover).
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import Counter

import numpy as np

from workloads import symplectic_residual
from zeipel import cli, elements, hamiltonian, propagator, transform, vonzeipel

MAP_SPANS = ("transform.mean_to_osculating", "transform.osculating_to_mean")

# span name -> (module, function names); each binding in any zeipel module.
FUNCTIONS = {
    "elements.kepler_solve": (elements, ("kepler_solve",)),
    "elements.conversions": (
        elements,
        ("kep_to_delaunay", "delaunay_to_kep", "kep_to_cartesian", "cartesian_to_kep"),
    ),
    "hamiltonian.zonal_accel": (hamiltonian, ("zonal_accel",)),
    "hamiltonian.dh1_true": (hamiltonian, ("dh1_true",)),
    "vonzeipel.second_order_tables": (vonzeipel, ("second_order_tables",)),
    "vonzeipel.ds1": (vonzeipel, ("ds1_dl", "ds1_dg", "ds1_dP")),
    "propagator.propagate_analytic": (propagator, ("propagate_analytic",)),
    "propagator.oracle": (propagator, ("propagate_oracle",)),
    "propagator.oracle.integrate": (propagator, ("solve_ivp",)),
    "propagator.mean_history": (propagator, ("mean_history",)),
    "propagator.compare": (propagator, ("compare",)),
    "cli.write_ephemeris_csv": (cli, ("write_ephemeris_csv",)),
}
# span name -> (class, method names)
METHODS = {
    "vonzeipel.tables_eval": (vonzeipel.SecondOrderTables, ("value", "dl", "dg")),
    "transform.mean_to_osculating": (transform.CanonicalMap, ("mean_to_osculating",)),
    "transform.osculating_to_mean": (transform.CanonicalMap, ("osculating_to_mean",)),
    "transform.grad_P": (transform.GeneratingSeries, ("grad_P",)),
    "transform.grad_q": (transform.GeneratingSeries, ("grad_q",)),
    "transform.map_jacobian": (transform.CanonicalMap, ("map_jacobian",)),
}

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("elements.kepler_solve.calls", "count"),
    ("elements.kepler_solve.points", "count"),
    ("elements.kepler_solve.self_s", "s"),
    ("elements.conversions.calls", "count"),
    ("elements.conversions.self_s", "s"),
    ("hamiltonian.zonal_accel.calls", "count"),
    ("hamiltonian.zonal_accel.self_s", "s"),
    ("hamiltonian.dh1_true.calls", "count"),
    ("hamiltonian.dh1_true.self_s", "s"),
    ("vonzeipel.second_order_tables.calls", "count"),
    ("vonzeipel.second_order_tables.misses", "count"),
    ("vonzeipel.second_order_tables.hit_ratio", "1"),
    ("vonzeipel.second_order_tables.self_s", "s"),
    ("vonzeipel.tables_eval.calls", "count"),
    ("vonzeipel.tables_eval.self_s", "s"),
    ("vonzeipel.ds1.calls", "count"),
    ("vonzeipel.ds1.self_s", "s"),
    ("transform.mean_to_osculating.calls", "count"),
    ("transform.mean_to_osculating.self_s", "s"),
    ("transform.mean_to_osculating.newton_iters", "iter/call"),
    ("transform.osculating_to_mean.calls", "count"),
    ("transform.osculating_to_mean.self_s", "s"),
    ("transform.osculating_to_mean.newton_iters", "iter/call"),
    ("transform.grad_P.calls", "count"),
    ("transform.grad_P.self_s", "s"),
    ("transform.grad_q.calls", "count"),
    ("transform.grad_q.self_s", "s"),
    ("transform.map_jacobian.calls", "count"),
    ("transform.map_jacobian.self_s", "s"),
    ("transform.map_jacobian.map_evals", "count"),
    ("transform.map_jacobian.symplectic_residual", "1"),
    ("propagator.propagate_analytic.self_s", "s"),
    ("propagator.propagate_analytic.samples", "count"),
    ("propagator.oracle.integrate_s", "s"),
    ("propagator.oracle.nfev", "count"),
    ("propagator.oracle.post_s", "s"),
    ("propagator.mean_history.self_s", "s"),
    ("propagator.mean_history.states", "count"),
    ("propagator.compare.self_s", "s"),
    ("cli.write_ephemeris_csv.calls", "count"),
    ("cli.write_ephemeris_csv.bytes", "B"),
    ("cli.write_ephemeris_csv.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end)
        self.counts = Counter()
        self.worst_residual = 0.0
        self._stack = []

    def wrap(self, name, fn, after=None):
        """`fn` recording one span per call; `after(args, kwargs, result)`
        runs once the span is closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _newton(self, name, method):
        """Call the map with return_info=True to count Newton iterations."""
        counts = self.counts

        def call(cmap, state, return_info=False):
            out, info = method(cmap, state, return_info=True)
            counts[name + ".iters"] += info["iterations"]
            return (out, info) if return_info else out

        return call

    def _after(self, name):
        counts = self.counts
        if name == "elements.kepler_solve":
            return lambda a, k, out: counts.update({"kepler_points": int(np.size(a[0]))})
        if name == "propagator.oracle.integrate":
            return lambda a, k, out: counts.update({"nfev": int(out.nfev)})
        if name == "propagator.propagate_analytic":
            return lambda a, k, out: counts.update({"samples": len(a[1])})
        if name == "propagator.mean_history":
            return lambda a, k, out: counts.update({"states": len(a[0])})
        if name == "cli.write_ephemeris_csv":
            return lambda a, k, out: counts.update({"bytes": os.path.getsize(a[0])})
        if name == "transform.map_jacobian":
            def residual(a, k, out):
                if k.get("scaled"):
                    self.worst_residual = max(self.worst_residual, symplectic_residual(out))
            return residual
        return None

    @contextlib.contextmanager
    def installed(self):
        zeipel_modules = [m for n, m in list(sys.modules.items()) if n == "zeipel" or n.startswith("zeipel.")]
        undo = []
        try:
            for name, (module, attrs) in FUNCTIONS.items():
                for attr in attrs:
                    orig = getattr(module, attr)
                    new = self.wrap(name, orig, self._after(name))
                    for mod in zeipel_modules:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                undo.append((mod, key, orig))
                                setattr(mod, key, new)
            for name, (cls, attrs) in METHODS.items():
                for attr in attrs:
                    orig = cls.__dict__[attr]
                    fn = self._newton(name, orig) if name in MAP_SPANS else orig
                    undo.append((cls, attr, orig))
                    setattr(cls, attr, self.wrap(name, fn, self._after(name)))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def metrics(self, hits, misses):
        """Per-layer metrics of the traced pass (without trace.overhead_s).
        `hits` and `misses` come from the table cache's cache_info()."""
        n = len(self.spans)
        covered = [0.0] * n
        integrate = [0.0] * n
        map_children = [0] * n
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
                if name == "propagator.oracle.integrate":
                    integrate[parent] += end - start
                elif name in MAP_SPANS:
                    map_children[parent] += 1
        calls = Counter()
        self_s = Counter()
        post_s = integrate_s = 0.0
        map_evals = 0
        for k, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[k]
            if name == "propagator.oracle":
                post_s += end - start - integrate[k]
            elif name == "propagator.oracle.integrate":
                integrate_s += end - start
            elif name == "transform.map_jacobian":
                map_evals += map_children[k]

        def per_call(total, span):
            return total / calls[span] if calls[span] else 0.0

        out = {}
        for name in list(FUNCTIONS) + list(METHODS):
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        c = self.counts
        out.update({
            "elements.kepler_solve.points": c["kepler_points"],
            "vonzeipel.second_order_tables.misses": misses,
            "vonzeipel.second_order_tables.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "transform.mean_to_osculating.newton_iters": per_call(
                c["transform.mean_to_osculating.iters"], "transform.mean_to_osculating"),
            "transform.osculating_to_mean.newton_iters": per_call(
                c["transform.osculating_to_mean.iters"], "transform.osculating_to_mean"),
            "transform.map_jacobian.map_evals": map_evals,
            "transform.map_jacobian.symplectic_residual": self.worst_residual,
            "propagator.propagate_analytic.samples": c["samples"],
            "propagator.oracle.integrate_s": integrate_s,
            "propagator.oracle.nfev": c["nfev"],
            "propagator.oracle.post_s": post_s,
            "propagator.mean_history.states": c["states"],
            "cli.write_ephemeris_csv.bytes": c["bytes"],
        })
        return out
