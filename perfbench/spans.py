"""Timing spans around jetgeo's public functions, installed from outside.

`Tracer.install` replaces each listed function at every jetgeo module that
binds it (tuples of functions such as `acceptance.ALL_CRITERIA` included)
and each listed method on its class; `uninstall` puts the originals back.
A span records name, start, end, parent span and operation id.  A call
made while a span of the same name is open (recursion, or `simplify`
inside `simplify`) runs untimed inside it.  Hot leaf names are only
aggregated per (name, parent name); the others are also kept as spans in
memory, to be written out when the run ends.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (span name, "module" or "module:Class", attribute)
TARGETS = [
    ("expr.evaluate", "jetgeo.expr", "evaluate"),
    ("expr.simplify", "jetgeo.expr", "simplify"),
    ("expr.parse", "jetgeo.expr", "parse"),
    ("expr.differentiate", "jetgeo.expr", "differentiate"),
    ("connections.christoffel_at", "jetgeo.connections:Connection", "christoffel_at"),
    ("connections.load_connection", "jetgeo.connections", "load_connection"),
    ("connections.grass_invariants", "jetgeo.connections", "grass_invariants"),
    ("connections.thomas_pi", "jetgeo.connections", "thomas_pi"),
    ("connections.invariants_match", "jetgeo.connections", "invariants_match"),
    ("jets.load_jets", "jetgeo.jets", "load_jets"),
    ("jets.build", "jetgeo.jets:SubJet", "__post_init__"),
    ("jets.build", "jetgeo.jets:SecJet", "__post_init__"),
    ("jets.first_matrix", "jetgeo.jets:SubJet", "first_matrix"),
    ("jets.first_matrix", "jetgeo.jets:SecJet", "first_matrix"),
    ("jets.second_array", "jetgeo.jets:SubJet", "second_array"),
    ("jets.second_array", "jetgeo.jets:SecJet", "second_array"),
    ("jets.cover1", "jetgeo.jets", "cover1"),
    ("jets.cover2", "jetgeo.jets", "cover2"),
    ("jets.affine_act", "jetgeo.jets", "affine_act"),
    ("geodesy.dot_gamma", "jetgeo.geodesy", "dot_gamma"),
    ("geodesy.ddot_gamma", "jetgeo.geodesy", "ddot_gamma"),
    ("geodesy.residual2", "jetgeo.geodesy", "residual2"),
    ("geodesy.ddot_gamma_pro", "jetgeo.geodesy", "ddot_gamma_pro"),
    ("geodesy.param_residual2", "jetgeo.geodesy", "param_residual2"),
    ("geodesy.grass_equivalent", "jetgeo.geodesy", "grass_equivalent"),
    ("geodesy.geodesic_steps", "jetgeo.geodesy", "geodesic_steps"),
    ("geodesy.covering_commutation_deviation", "jetgeo.geodesy", "covering_commutation_deviation"),
    ("geodesy.quotient_diagram_deviation", "jetgeo.geodesy", "quotient_diagram_deviation"),
    ("symmetry.preserves_distribution", "jetgeo.symmetry", "preserves_distribution"),
    ("symmetry.field_preserves_distribution", "jetgeo.symmetry", "field_preserves_distribution"),
    ("symmetry.affine_symmetry_check", "jetgeo.symmetry", "affine_symmetry_check"),
    ("symmetry.reparam_symmetry_check", "jetgeo.symmetry", "reparam_symmetry_check"),
    ("symmetry.orbit_quotient_check", "jetgeo.symmetry", "orbit_quotient_check"),
    ("sampling.random_point", "jetgeo.sampling", "random_point"),
    ("cli.main", "jetgeo.cli", "main"),
    ("cli.output", "jetgeo.cli:Output", "flush"),
] + [(f"acceptance.criterion_{i}", "jetgeo.acceptance", f"criterion_{i}") for i in range(1, 12)]

# Called per sample, per jet or per RK4 stage: aggregated, not kept as spans.
HOT = {
    "expr.evaluate", "expr.simplify", "expr.parse", "expr.differentiate",
    "connections.christoffel_at", "jets.build", "jets.first_matrix", "jets.second_array",
    "jets.cover1", "jets.cover2", "jets.affine_act", "geodesy.dot_gamma", "geodesy.ddot_gamma",
    "geodesy.residual2", "geodesy.ddot_gamma_pro", "geodesy.param_residual2",
    "geodesy.geodesic_steps", "geodesy.covering_commutation_deviation",
    "geodesy.quotient_diagram_deviation", "sampling.random_point",
}

GENERATORS = {"geodesy.geodesic_steps"}


class Tracer:
    def __init__(self):
        self.stack = []        # open frames: [name, child seconds, span id]
        self.active = set()
        self.totals = {}       # name -> [calls, self seconds, inclusive seconds]
        self.edges = {}        # (name, parent name) -> [calls, inclusive seconds]
        self.spans = []        # (name, start, end, parent span id, op id)
        self.errors = Counter()    # (name, exception class name) -> count
        self.skipped = 0       # SymmetryReport.skipped summed over symmetry checks
        self.op = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _timed(self, name, fn, args, kwargs, count=1):
        parent = self.stack[-1] if self.stack else None
        span_id = None
        if name not in HOT:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, span_id]
        self.stack.append(frame)
        self.active.add(name)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if not isinstance(exc, StopIteration):
                self.errors[(name, type(exc).__name__)] += 1
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            self.active.discard(name)
            duration = end - start
            if parent is not None:
                parent[1] += duration
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += count
            total[1] += duration - frame[1]
            total[2] += duration
            edge = self.edges.setdefault((name, parent[0] if parent else None), [0, 0.0])
            edge[0] += count
            edge[1] += duration
            if span_id is not None:
                self.spans[span_id] = (name, start, end, parent[2] if parent else None, self.op)
        if name.startswith("symmetry."):
            self.skipped += getattr(result, "skipped", 0)
        return result

    def wrap(self, name, fn):
        if name in GENERATORS:
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                count = 1
                while True:
                    try:
                        item = self._timed(name, next, (inner,), {}, count)
                    except StopIteration:
                        return
                    count = 0
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self.active:
                return fn(*args, **kwargs)
            return self._timed(name, fn, args, kwargs)
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "jetgeo" or key.startswith("jetgeo.")) and m is not None]
        for name, owner, attr in TARGETS:
            module_name, _, class_name = owner.partition(":")
            if class_name:
                cls = getattr(sys.modules[module_name], class_name)
                self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                    elif isinstance(value, tuple) and any(v is original for v in value):
                        self._set(module, key,
                                  tuple(wrapper if v is original else v for v in value))

    def _set(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results -----------------------------------------------------------

    def calls(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def inclusive_s(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def edge_calls(self, name, parent):
        return self.edges.get((name, parent), [0, 0.0])[0]

    def dump(self):
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "seconds": t}
                for (n, p), (c, t) in sorted(self.edges.items(), key=lambda kv: str(kv[0]))
            ],
            "errors": [
                {"name": n, "error": err, "count": c} for (n, err), c in sorted(self.errors.items())
            ],
        }
