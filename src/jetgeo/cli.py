"""Command-line front end.

Subcommands: invariants, equivalent, residual, geodesic, cover-check,
symmetry-check, selftest.  Inputs are JSON spec files (formats documented
in the README); bulk numeric output is CSV (or JSON with --format json) on
stdout or --out, human summaries go to stderr.  All randomness derives
from --seed / JETGEO_SEED, so identical invocations produce byte-identical
output.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import expr
from .acceptance import AcceptanceConfig, run_all
from .connections import (
    Connection,
    _check_split,
    grass_invariants,
    invariants_match,
    load_connection,
    pi_deviation,
    thomas_pi,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    JetGeoError,
    ParseError,
    SingularJacobianError,
    SpecLoadError,
    UnknownSymbolError,
    draw_regular,
    json_numbers,
    load_json,
    outcome,
    require_finite,
    worst,
)
from .geodesy import (
    _check_theta,
    covering_commutation_deviations,
    geodesic_residuals,
    geodesic_steps,
    grass_equivalent,
    param_residual2,
    quotient_diagram_deviations,
    residual2,
)
from .jets import AffineMap, SecJet, cover2, derivative_entries, load_jets
from .sampling import Draw, WordStream, secjet1_draw, spawn_rng
from .symmetry import (
    affine_symmetry_check,
    field_preserves_distribution,
    jetfield_from_dict,
    jetmap_from_dict,
    preserves_distribution,
)


def _fmt(x):
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


class Output:
    def __init__(self, args):
        self.format = args.format
        self.path = args.out
        self.columns = None
        self.rows = []

    def table(self, columns, rows):
        self.columns = list(columns)
        self.rows = [list(r) for r in rows]

    def flush(self, summary=None):
        if self.format == "json":
            text = json.dumps(
                {"columns": self.columns, "rows": self.rows, "summary": summary or {}},
                indent=2,
                default=_fmt,
            ) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            if self.columns:
                writer.writerow(self.columns)
            for row in self.rows:
                # the bytes csv.writer writes for a row of floats, which need no quoting
                if all(type(v) is float for v in row):
                    buf.write(",".join(map(repr, row)) + "\n")
                else:
                    writer.writerow(map(_fmt, row))
            text = buf.getvalue()
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _say(message):
    print(message, file=sys.stderr)


def _load_theta(args, n):
    if getattr(args, "theta", None):
        return load_connection(args.theta)
    return Connection.flat(n)


def _vector(text, option):
    try:
        values = [float(v) for v in text.split(",")]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise JetGeoError(f"{option} must be comma-separated finite numbers, got {text!r}")


def _split(args, g, other=None):
    """`--n`, or else the `n` of g's spec, which that of `other`, a
    connection compared with g, must equal."""
    if args.n is None and other is not None and other.frame.split != g.frame.split:
        raise JetGeoError(f"the specs declare different splits, n={g.frame.split} and n={other.frame.split}; "
                          "choose one with --n")
    n = args.n if args.n is not None else g.frame.split
    _check_split(g, n)
    return n


# ---------------------------------------------------------------------------
# subcommands


def cmd_invariants(args):
    g = load_connection(args.connection)
    other = load_connection(args.compare) if args.compare else None
    n = _split(args, g, other)
    if other is not None:
        pi_dev = pi_deviation(g, other, spawn_rng(args.seed, 0))
        _, grass_dev = invariants_match(g, other, n, spawn_rng(args.seed, 1))
        out = Output(args)
        out.table(["family", "max_deviation"], [["thomas", pi_dev], ["grassmann", grass_dev]])
        tol = args.tol if args.tol is not None else 1e-10
        same = pi_dev <= tol and grass_dev <= tol
        out.flush({"identical": same, "tol": tol})
        _say(f"invariant tables {'identical' if same else 'differ'} "
             f"(thomas {pi_dev:.3e}, grassmann {grass_dev:.3e})")
        return 0
    rows = []
    for (a, c, b), e in sorted(thomas_pi(g).pi.items()):
        rows.append(["thomas", f"{a},{c},{b}", expr.to_text(e)])
    inv = grass_invariants(g, n)
    for name, family in (("order0", inv.order0), ("order1", inv.order1),
                         ("order2", inv.order2), ("order3", inv.order3)):
        for key, e in sorted(family.items()):
            if not expr.is_zero(e):
                rows.append([name, ",".join(map(str, key)), expr.to_text(e)])
    out = Output(args)
    out.table(["family", "indices", "expression"], rows)
    out.flush({"n": n, "components": len(rows)})
    _say(f"{len(rows)} nonzero invariant components (split n={n})")
    return 0


def cmd_equivalent(args):
    g1 = load_connection(args.connection)
    g2 = load_connection(args.other)
    if g1.frame.names != g2.frame.names:
        raise JetGeoError("connections live on different coordinate frames")
    n = _split(args, g1, g2)
    tol = args.tol if args.tol is not None else 1e-10
    verdict = grass_equivalent(g1, g2, n, samples=args.samples, tol=tol, seed=args.seed)
    out = Output(args)
    out.table(
        ["quantity", "value"],
        [
            ["equivalent", verdict.equivalent],
            ["max_deviation", verdict.max_deviation],
            ["invariants_equal", verdict.invariants_equal],
            ["invariants_deviation", verdict.invariants_deviation],
        ],
    )
    out.flush({"samples": verdict.samples, "tol": tol})
    word = "EQUIVALENT" if verdict.equivalent else "NOT equivalent"
    fast = "equal" if verdict.invariants_equal else "differ"
    _say(f"{word} (max deviation {verdict.max_deviation:.3e}; invariant fast path: {fast})")
    return 0 if verdict.equivalent else 1


def _jet_coord_row(jet):
    vals = list(jet.x) + list(jet.u) if isinstance(jet, SecJet) else list(jet.base)
    return vals + [value for _, _, value in derivative_entries(jet)]


def cmd_residual(args):
    g = load_connection(args.connection)
    jets = load_jets(args.jets)
    if not jets:
        raise JetGeoError(f"no jets in {args.jets}")
    rows = []
    tol = args.tol if args.tol is not None else 1e-10
    residuals = []
    if args.mode == "param":
        if not all(isinstance(t, SecJet) for t in jets):
            raise JetGeoError("param mode needs section jets")
        theta = _load_theta(args, jets[0].n)
    for idx, t in enumerate(jets):
        try:
            with np.errstate(all="ignore"):
                if args.mode == "param":
                    r = param_residual2(g, theta, t)
                else:
                    r = residual2(g, cover2(t) if isinstance(t, SecJet) else t)
        except SingularJacobianError:
            rows.append([idx, "singular-jacobian"])
            continue
        except DomainError:
            rows.append([idx, "domain-error"])
            continue
        flat = [r.table[c, a, b] for c in range(len(r.table)) for a in range(t.n) for b in range(a, t.n)]
        rows.append([idx, "ok"] + _jet_coord_row(t) + flat + [r.max_abs()])
        residuals.append(r.max_abs())
    out = Output(args)
    ncols = max(len(r) for r in rows)
    header = ["jet", "status"] + [f"c{i}" for i in range(ncols - 2)]
    out.table(header, rows)
    max_abs = worst(residuals)
    out.flush({"mode": args.mode, "max_abs": max_abs})
    _say(f"{len(rows)} jets, worst residual {max_abs:.3e} (tol {tol:.1e})")
    return 0


def cmd_geodesic(args):
    if not (math.isfinite(args.h) and args.h > 0):
        raise JetGeoError("step size must be a positive finite number")
    g = load_connection(args.connection)
    theta = _load_theta(args, 1)
    start = _vector(args.start, "--start")
    velocity = _vector(args.velocity, "--velocity")
    steps, errors = [], []
    try:
        for step in geodesic_steps(g, theta, start, velocity, args.h, args.steps):
            steps.append(step)
    except DomainError as e:
        errors.append(["error", str(e)])
    rows = [[s.x, *s.u, *s.v, r] for s, r in zip(steps, geodesic_residuals(g, steps))] + errors
    truncated = bool(errors)
    l = g.dim
    header = (["t"] + [f"u{i}" for i in range(1, l + 1)]
              + [f"v{i}" for i in range(1, l + 1)] + ["residual_max"])
    out = Output(args)
    out.table(header, rows)
    out.flush({"steps": args.steps, "h": args.h, "truncated": truncated})
    if truncated:
        _say("trajectory truncated by a domain error")
        return 3
    _say(f"integrated {args.steps} steps of size {args.h}")
    return 0


def cmd_cover_check(args):
    g = load_connection(args.connection)
    n = _split(args, g)
    theta = _load_theta(args, n)
    _check_theta(theta, n)
    tol = args.tol if args.tol is not None else 1e-10
    l = g.dim
    # a sample draws its section jet (first, x, u), then a tangent vector
    # (dx, du, dd), before anything can fail, so a redrawn sample consumes
    # as much of the stream as a kept one
    layout = (secjet1_draw(n, l), Draw(((n,), (l,), (l, n))))
    stream = WordStream(spawn_rng(args.seed, 0))

    def draw(k):
        walked, jets = stream.walk([layout] * k), np.arange(k)
        (first, x, u), (dx, du, dd) = walked.parts(0, jets), walked.parts(1, jets)
        G, failed = g.christoffel_many(u)
        Th, theta_failed = theta.christoffel_many(x)
        # the gate keeps |det first[:n]| >= 0.3 with entries in [-1, 1], so
        # inverse_top_blocks raises no SingularJacobianError here
        c_devs = covering_commutation_deviations(G, Th, first).tolist()
        q_devs = quotient_diagram_deviations(G, Th, first, dx, du, dd).tolist()

        def row(i):
            return (require_finite(c_devs[i], "commutation deviation"),
                    require_finite(q_devs[i], "quotient deviation"))
        return [failed.get(i) or theta_failed.get(i) or outcome(row, i) for i in range(k)]

    with stream:
        devs, _ = draw_regular(draw, args.samples, batch=True)
    max_dev = worst(v for d in devs for v in d)
    rows = [[idx, c_dev, q_dev, "pass" if worst((c_dev, q_dev)) <= tol else "fail"]
            for idx, (c_dev, q_dev) in enumerate(devs)]
    out = Output(args)
    out.table(["sample", "commutation_dev", "quotient_dev", "status"], rows)
    passed = max_dev <= tol
    out.flush({"max_deviation": max_dev, "tol": tol, "passed": passed})
    _say(f"{'PASS' if passed else 'FAIL'} covering checks: worst {max_dev:.3e}, tol {tol:.1e}")
    return 0 if passed else 1


def _load_affine(path):
    data = load_json(path)
    try:
        rows = data["a"]
        if not isinstance(rows, list):
            raise TypeError(f"a must be a list of rows, got {rows!r}")
        return AffineMap([json_numbers(row, "each row of a") for row in rows], json_numbers(data["b"], "b"))
    except (KeyError, TypeError, ValueError) as e:
        raise SpecLoadError(f"malformed affine map spec: {e}") from None


def cmd_symmetry_check(args):
    g = load_connection(args.connection)
    n = _split(args, g)
    tol = args.tol if args.tol is not None else 1e-8
    samples = args.samples
    if args.affine:
        aff = _load_affine(args.affine)
        if aff.n != n:
            raise DimensionMismatchError(f"affine map acts on {aff.n} parameters, the split is n={n}")
        theta = _load_theta(args, aff.n)
        report = affine_symmetry_check(g, theta, aff, samples=samples, tol=tol, seed=args.seed)
    elif args.field:
        f = jetfield_from_dict(load_json(args.field))
        report = field_preserves_distribution(f, g, n, samples=samples, tol=tol, seed=args.seed)
    else:
        jmap = jetmap_from_dict(load_json(args.map))
        theta = _load_theta(args, n) if jmap.kind == "secjet" else None
        report = preserves_distribution(jmap, g, n, samples=samples, tol=tol,
                                        seed=args.seed, theta=theta)
    rows = [
        [idx, *coords, res, "pass" if res <= report.tol else "fail"]
        for idx, (coords, res) in enumerate(report.rows)
    ]
    ncoords = len(report.rows[0][0]) if report.rows else 0
    header = ["sample"] + [f"c{i}" for i in range(ncoords)] + ["residual", "status"]
    out = Output(args)
    out.table(header, rows)
    out.flush({
        "passed": report.passed,
        "worst_residual": report.worst_residual,
        "skipped": report.skipped,
        "tol": report.tol,
    })
    _say(f"{report.summary()} (worst residual {report.worst_residual:.3e}, "
         f"skipped {report.skipped})")
    return 0 if report.passed else 1


def cmd_selftest(args):
    cfg = AcceptanceConfig(seed=args.seed, tol_override=args.tol)
    results = run_all(cfg)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    _say(f"{len(results) - len(failed)}/{len(results)} criteria passed (seed {args.seed})")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# argument wiring


_OPTIONS = {
    "seed": dict(type=int, default=None, help="random seed (default: $JETGEO_SEED or 0)"),
    "samples": dict(type=int, default=200, help="sample count for randomized checks"),
    "tol": dict(type=float, default=None, help="tolerance override"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "out": dict(default=None, help="write the table to this path instead of stdout"),
    "n": dict(type=int, default=None, help="base/fibre split (default: from the spec)"),
}


def _add_options(p, *names):
    """Add the options of `_OPTIONS` named in `names`: those the subcommand reads."""
    for name in names:
        p.add_argument(f"--{name}", **_OPTIONS[name])


@functools.cache
def build_parser():
    """The argument parser, built on the first call and kept: parsing
    leaves no state in it, so every `main` call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="jetgeo",
        description="Totally geodesic submanifold equations from symbolic Christoffel data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="print projective and Grassmannian invariant tables")
    p.add_argument("connection")
    p.add_argument("--compare", default=None, help="second connection spec to diff against")
    _add_options(p, "seed", "tol", "format", "out", "n")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("equivalent", help="decide Grassmannian equivalence of two connections")
    p.add_argument("connection")
    p.add_argument("other")
    _add_options(p, "seed", "samples", "tol", "format", "out", "n")
    p.set_defaults(fn=cmd_equivalent)

    p = sub.add_parser("residual", help="evaluate a totally geodesic residual on jet files")
    p.add_argument("connection")
    p.add_argument("--jets", required=True)
    p.add_argument("--mode", choices=("param", "unparam"), required=True)
    p.add_argument("--theta", default=None, help="parameter-space connection spec (param mode)")
    _add_options(p, "tol", "format", "out")
    p.set_defaults(fn=cmd_residual)

    p = sub.add_parser("geodesic", help="integrate the parametrized geodesic equation")
    p.add_argument("connection")
    p.add_argument("--start", required=True, help="comma-separated start point")
    p.add_argument("--velocity", required=True, help="comma-separated start velocity")
    p.add_argument("--h", type=float, required=True, help="step size")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--theta", default=None)
    _add_options(p, "format", "out")
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("cover-check", help="verify covering commutation and the quotient diagram")
    p.add_argument("connection")
    p.add_argument("--theta", default=None)
    _add_options(p, "seed", "samples", "tol", "format", "out", "n")
    p.set_defaults(fn=cmd_cover_check)

    p = sub.add_parser("symmetry-check", help="check a candidate symmetry")
    p.add_argument("connection")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--map", default=None, help="jet map spec")
    group.add_argument("--field", default=None, help="jet field spec")
    group.add_argument("--affine", default=None, help="affine map spec")
    p.add_argument("--theta", default=None)
    _add_options(p, "seed", "samples", "tol", "format", "out", "n")
    p.set_defaults(fn=cmd_symmetry_check)

    p = sub.add_parser("selftest", help="run every acceptance criterion")
    # selftest writes no file; it takes --out because perfbench/run.py passes it to every call
    _add_options(p, "seed", "tol", "out")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if "seed" in args and args.seed is None:
        text = os.environ.get("JETGEO_SEED", "0")
        try:
            args.seed = int(text)
        except ValueError:
            _say(f"error: JETGEO_SEED must be a non-negative integer, got {text!r}")
            return 2
    if "seed" in args and args.seed < 0:
        _say(f"error: seed must be a non-negative integer, got {args.seed}")
        return 2
    if "samples" in args and args.samples < 1:
        _say("error: samples must be >= 1")
        return 2
    if "tol" in args and args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        _say(f"error: tol must be a positive finite number, got {args.tol}")
        return 2
    try:
        return args.fn(args)
    except JetGeoError as e:
        _say(f"error: {e}")
        if isinstance(e, (ParseError, UnknownSymbolError)):
            _say("expression grammar: infix + - * / ^ with parentheses, calls "
                 "sin/cos/exp/sqrt, rational literals p/q, and declared coordinate names")
        return 2
    except OSError as e:
        _say(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
