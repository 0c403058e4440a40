"""Metric names, units and directions, with the end-to-end metric each
per-layer metric is predicted to move.  BENCHMARK.json lists the same
names; the smoke test checks that the two agree.

An "op" is one `jetgeo.cli.main(argv)` call; an "item" is a geodesic
RK4 step, a residual jet, an equivalence verdict or a whole selftest.
Per-layer counts and times are per op, averaged over whole passes through
the workload's cases, so the counts are exact and do not grow with the
number of ops that fit in a run.  Failed operations are reported through
the result's `attempted` and `failed` fields, and as `error_rate` in the
traced run.

End-to-end op times are in "ref": the median duration of the fixed
reference work in calibrate.py, run next to each op, so that the drift of a
shared host's speed cancels.  The tail (the highest percentile with ten
ops beyond it) and the wall-clock figures are in the run's info line; the
tail is not a gated metric, because a selftest run holds about five ops.
"""
from __future__ import annotations

END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("items_per_ref", "1/ref", "higher", 0.15),
    ("op_p50_ref", "ref", "lower", 0.15),
]

# Predictions name the listed workloads (geodesic, selftest) and, in
# brackets, the unlisted ones that can be run by name (residual, equivalence).
_KERNEL = "geodesic items_per_ref first; then selftest (residual, equivalence)"
_SYMBOLIC = "selftest op_p50_ref (equivalence); unchanged on geodesic (and residual)"
_SETUP = "setup_s"
_JETS = "selftest items_per_ref (residual); about 1% of geodesic"
_CHECKS = "selftest items_per_ref (residual, equivalence)"
_SYMMETRY = "selftest op_p50_ref"
_SAMPLING = "selftest items_per_ref (equivalence; exact counts)"
_CLI = "geodesic items_per_ref (residual)"


def _timed(name, moves, extra=()):
    return [(f"{name}.calls", "calls/op", "lower", moves),
            (f"{name}.self_s", "s/op", "lower", moves)] + list(extra)


PER_LAYER = (
    _timed("expr.evaluate", _KERNEL,
           [("expr.evaluate.domain_errors", "count/op", "lower", _KERNEL)])
    + _timed("connections.christoffel_at", _KERNEL + "; calls: " + _SAMPLING)
    + _timed("expr.simplify", _SYMBOLIC)
    + _timed("connections.grass_invariants", _SYMBOLIC)
    + _timed("connections.thomas_pi", _SYMBOLIC)
    + _timed("expr.parse", _SETUP)
    + _timed("expr.differentiate", _SETUP)
    + _timed("connections.load_connection", _SETUP)
    + _timed("connections.invariants_match", "equivalence only")
    + [m for f in ("load_jets", "build", "first_matrix", "second_array", "cover1", "cover2",
                   "affine_act") for m in _timed(f"jets.{f}", _JETS)]
    + [m for f in ("dot_gamma", "ddot_gamma", "residual2", "ddot_gamma_pro", "param_residual2",
                   "grass_equivalent", "geodesic_steps", "covering_commutation_deviation",
                   "quotient_diagram_deviation") for m in _timed(f"geodesy.{f}", _CHECKS)]
    + [m for f in ("preserves_distribution", "field_preserves_distribution",
                   "affine_symmetry_check", "reparam_symmetry_check", "orbit_quotient_check")
       for m in _timed(f"symmetry.{f}", _SYMMETRY)]
    + [("symmetry.skipped", "count/op", "lower", _SYMMETRY)]
    + _timed("sampling.random_point", _SAMPLING,
             [("sampling.random_point.accept_ratio", "ratio", "higher", _SAMPLING)])
    + _timed("cli.main", _CLI)
    + _timed("cli.output", _CLI)
    + [(f"acceptance.criterion_{i}.wall_s", "s/op", "lower", _SYMMETRY) for i in range(1, 12)]
    + [("error_rate", "ratio", "lower", "every workload: failed over attempted operations"),
       ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced wall time")]
)


def per_layer_values(tracer, ops, attempted, failed, overhead):
    """Every PER_LAYER metric from a finished traced run of `ops` calls."""
    values = {}
    for name, unit, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tracer.calls(span) / ops
        elif field == "self_s":
            values[name] = tracer.self_s(span) / ops
        elif field == "wall_s":
            values[name] = tracer.inclusive_s(span) / ops
    tries = tracer.edge_calls("connections.christoffel_at", "sampling.random_point")
    accepted = tracer.calls("sampling.random_point") - sum(
        c for (n, _), c in tracer.errors.items() if n == "sampling.random_point")
    values.update({
        "expr.evaluate.domain_errors": tracer.errors[("expr.evaluate", "DomainError")] / ops,
        "sampling.random_point.accept_ratio": accepted / tries if tries else 0.0,
        "symmetry.skipped": tracer.skipped / ops,
        "error_rate": failed / attempted,
        "trace.overhead_ratio": overhead,
    })
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
