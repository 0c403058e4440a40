"""Acceptance criteria: property checks at desk scale with pinned tolerances.

Each criterion is a function of an AcceptanceConfig returning a
CriterionResult; the registry at the bottom drives both the test suite and
the command-line selftest.  Tolerances and sample counts are fixed here;
`tol_override` exists so a caller can squeeze them (and watch criteria
fail in a controlled way), not to loosen them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr
from .connections import Connection, grass_shift, invariants_match, pi_deviation, projective_shift
from .errors import worst
from .expr import Const, CoordinateFrame, Sym
from .geodesy import (
    XiTable,
    covering_commutation_deviations,
    ddot_gamma,
    ddot_second,
    dot_gamma,
    dot_gamma_via_xi,
    geodesic_steps,
    grass_equivalent,
    quotient_diagram_deviations,
    residual2,
    residual_table,
)
from .jets import ParamMap, SubJet, cover2, cover_first, cover_second, inverse_top_blocks, prolong
from .sampling import (
    draw_connection,
    random_affine,
    random_connection,
    random_expressions,
    random_subjet1,
    secjet1_arrays,
    spawn_rng,
)
from .symmetry import (
    affine_symmetry_check,
    field_preserves_distribution,
    orbit_quotient_check,
    preserves_distribution,
    prolong_point_field,
    prolong_point_map,
    reparam_symmetry_check,
)


@dataclass(frozen=True)
class AcceptanceConfig:
    seed: int = 0
    tol_override: float | None = None


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    deviation: float
    tol: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (
            f"{status}  criterion {self.cid:2d}: {self.title} "
            f"(deviation {self.deviation:.3e}, tol {self.tol:.1e}){extra}"
        )


_DIM_CASES = ((1, 1), (1, 2), (2, 1), (2, 2))


def _frame(l, n):
    return CoordinateFrame(tuple(f"u{i}" for i in range(1, l + 1)), n)


def _theta_frame(n):
    return CoordinateFrame(tuple(f"x{i}" for i in range(1, n + 1)), n)


def _tol(cfg, pinned):
    return pinned if cfg.tol_override is None else cfg.tol_override


def _per_case(samples, kernel):
    """The deviations of `samples`, in sample order, where samples[i] holds
    the arrays of sample i and sample i has dimension case i % 4: one
    `kernel` call per `_DIM_CASES` entry, on the C-contiguous stacks of its
    samples' arrays."""
    out = [None] * len(samples)
    cases = len(_DIM_CASES)
    for k in range(cases):
        stacked = (np.array(arrays) for arrays in zip(*samples[k::cases]))
        out[k::cases] = kernel(*stacked).tolist()
    return out


def _result(cid, title, deviations, tol, ok=True, detail=""):
    """A criterion that passes when `ok` holds and the worst of its
    deviations, NaN included, is within tol."""
    dev = worst(deviations)
    return CriterionResult(cid, title, ok and dev <= tol, dev, tol, detail)


def sphere_chart_connection():
    """Round-sphere Christoffels in the stereographic chart of the metric
    4 (1 + u1^2 + u2^2)^-2 δ."""
    frame = CoordinateFrame(("u1", "u2"), 1)
    d = "(1 + u1^2 + u2^2)"
    entries = {
        (1, 1, 1): f"-2*u1/{d}",
        (1, 2, 1): f"-2*u2/{d}",
        (2, 2, 1): f"2*u1/{d}",
        (1, 1, 2): f"2*u2/{d}",
        (1, 2, 2): f"-2*u1/{d}",
        (2, 2, 2): f"-2*u2/{d}",
    }
    return Connection(frame, {k: expr.parse(v, frame) for k, v in entries.items()})


def criterion_1(cfg):
    """residual of the order-2 extension vanishes for random connections"""
    tol = _tol(cfg, 1e-10)
    rng = spawn_rng(cfg.seed, 1)
    start = time.perf_counter()
    samples = []
    for i in range(200):
        n, m = _DIM_CASES[i % 4]
        g = draw_connection(_frame(n + m, n), rng)
        base = rng.uniform(-1.0, 1.0, n + m)
        first = rng.uniform(-1.0, 1.0, (m, n))
        samples.append((g.christoffel_at(base), first))

    def residual(G, D):
        return np.abs(residual_table(G, D, ddot_second(G, D))).max(axis=(1, 2, 3))

    deviations = _per_case(samples, residual)
    elapsed = time.perf_counter() - start
    return _result(1, "defining identity on 200 random connections", deviations, tol,
                   elapsed < 5.0, f"elapsed {elapsed:.2f}s")


def criterion_2(cfg):
    """auxiliary-connection construction is independent of the choice"""
    tol = _tol(cfg, 1e-12)
    rng = spawn_rng(cfg.seed, 2)
    deviations = []
    for n, m in _DIM_CASES:
        g = random_connection(_frame(n + m, n), rng)
        for _ in range(3):
            p = random_subjet1(n, m, rng)
            closed = dot_gamma(g, p).table
            for _ in range(50):
                via = dot_gamma_via_xi(g, XiTable.random(n, m, rng), p).table
                deviations.append(np.abs(via - closed).max())
    return _result(2, "independence of the auxiliary connection", deviations, tol)


def criterion_3(cfg):
    """projective change preserves the trace-adjusted invariants"""
    tol = _tol(cfg, 1e-10)
    rng = spawn_rng(cfg.seed, 3)
    deviations = []
    equivalent_all = True
    for case in range(50):
        l = 2 + case % 2
        frame = _frame(l, 1)
        g = random_connection(frame, rng)
        phi = random_expressions(frame.names, rng, l)
        shifted = projective_shift(g, phi)
        deviations.append(pi_deviation(g, shifted, rng))
        verdict = grass_equivalent(g, shifted, 1, samples=10, tol=tol, seed=cfg.seed + case)
        equivalent_all = equivalent_all and verdict.equivalent
        deviations.append(verdict.max_deviation)
    return _result(3, "projective invariance of the trace-adjusted table", deviations, tol,
                   equivalent_all)


def criterion_4(cfg):
    """admissible shifts preserve the invariant families and the equation"""
    tol = _tol(cfg, 1e-10)
    rng = spawn_rng(cfg.seed, 4)
    deviations = []
    ok = True
    for l, n in ((2, 1), (3, 1), (3, 2), (4, 2)):
        frame = _frame(l, n)
        g = random_connection(frame, rng)
        psi = random_expressions(frame.names, rng, n)
        chi = random_expressions(frame.names, rng, l - n) if n == 1 else None
        shifted = grass_shift(g, n, psi, chi)
        inv_ok, inv_dev = invariants_match(g, shifted, n, rng, tol=tol)
        verdict = grass_equivalent(g, shifted, n, samples=20, tol=tol, seed=cfg.seed + l)
        ok = ok and inv_ok and verdict.equivalent
        deviations += [inv_dev, verdict.max_deviation]
    # a non-admissible perturbation must be detected
    frame = _frame(3, 1)
    g = random_connection(frame, rng)
    tweaked = Connection.from_entries(
        frame, {**dict(g.christoffel), (1, 1, 2): g.gamma(1, 2, 1) + Const(Fraction(1))}
    )
    verdict = grass_equivalent(g, tweaked, 1, samples=20, tol=tol, seed=cfg.seed + 99)
    detected = (not verdict.equivalent) and verdict.max_deviation > 1e-3 and not verdict.invariants_equal
    return _result(4, "invariance under admissible shifts, detection of others", deviations, tol,
                   ok and detected)


def criterion_5(cfg):
    """extend-then-project equals project-then-extend"""
    tol = _tol(cfg, 1e-10)
    rng = spawn_rng(cfg.seed, 5)
    samples = []
    for i in range(200):
        n, m = _DIM_CASES[i % 4]
        g = draw_connection(_frame(n + m, n), rng)
        theta = draw_connection(_theta_frame(n), rng)
        x, u, first = secjet1_arrays(n, n + m, rng)
        samples.append((g.christoffel_at(u), theta.christoffel_at(x), first))
    deviations = _per_case(samples, covering_commutation_deviations)
    return _result(5, "covering commutation at 200 section jets", deviations, tol)


def criterion_6(cfg):
    """the induced connection is the quotient of the parametrized one"""
    tol = _tol(cfg, 1e-10)
    rng = spawn_rng(cfg.seed, 6)
    samples = []
    for i in range(100):
        n, m = _DIM_CASES[i % 4]
        l = n + m
        g = draw_connection(_frame(l, n), rng)
        theta = draw_connection(_theta_frame(n), rng)
        x, u, first = secjet1_arrays(n, l, rng)
        tangent = rng.uniform(-1, 1, n), rng.uniform(-1, 1, l), rng.uniform(-1, 1, (l, n))
        samples.append((g.christoffel_at(u), theta.christoffel_at(x), first, *tangent))
    deviations = _per_case(samples, quotient_diagram_deviations)
    return _result(6, "quotient diagram at 100 tangent vectors", deviations, tol)


def criterion_7(cfg):
    """affine maps act by symmetries; the orbit map is well defined"""
    tol = _tol(cfg, 1e-10)
    orbit_tol = _tol(cfg, 1e-12)
    rng = spawn_rng(cfg.seed, 7)
    deviations = []
    ok = True
    for i in range(20):
        n, m = _DIM_CASES[i % 4]
        g = random_connection(_frame(n + m, n), rng)
        theta = Connection.flat(n)
        aff = random_affine(n, rng)
        report = affine_symmetry_check(g, theta, aff, samples=50, tol=tol, seed=cfg.seed + i)
        ok = ok and report.passed
        deviations.append(report.worst_residual)
    g = random_connection(_frame(3, 1), rng)
    orbit = orbit_quotient_check(g, 1, samples=25, seed=cfg.seed, orbit_tol=orbit_tol, factoring_tol=tol)
    x_frame = _theta_frame(1)
    cubic = [expr.parse("x1^3 + x1", x_frame)]
    counter = reparam_symmetry_check(
        Connection.zero(_frame(2, 1)), Connection.zero(x_frame), cubic, x_frame,
        samples=15, tol=tol, seed=cfg.seed,
    )
    detected = (not counter.passed) and counter.worst_residual > 1e-3
    deviations += [orbit.wellposed_deviation, orbit.preimage_deviation, orbit.factoring_deviation]
    return _result(7, "affine symmetries, orbit constancy, non-affine counterexample", deviations,
                   tol, ok and orbit.passed and detected)


def criterion_8(cfg):
    """flat space: affine planes are exactly geodesic"""
    tol = _tol(cfg, 0.0)
    rng = spawn_rng(cfg.seed, 8)
    deviations = []
    for n in (1, 2):
        g = Connection.zero(_frame(3, n))
        x_frame = _theta_frame(n)
        for _ in range(10):
            coeffs = rng.integers(-3, 4, (3, n + 1))
            comps = []
            for a in range(3):
                linear = [(Sym(x_frame.names[lam]), Fraction(int(coeffs[a, lam]))) for lam in range(n)]
                comps.append(expr.normal_sum(linear, Fraction(int(coeffs[a, -1]))))
            # keep the base block invertible: force the identity on it
            for lam in range(n):
                comps[lam] = Sym(x_frame.names[lam])
            s = ParamMap(x_frame, tuple(comps))
            q = cover2(prolong(s, rng.uniform(-1, 1, n), 2))
            deviations.append(residual2(g, q).max_abs())
            p = random_subjet1(n, 3 - n, rng)
            deviations.append(np.abs(ddot_gamma(g, p).second_array()).max())
    return _result(8, "flat-space ground truth is exact", deviations, tol)


def criterion_9(cfg):
    """sphere geodesics: conserved speed and vanishing covered residual"""
    tol = _tol(cfg, 1e-8)
    g = sphere_chart_connection()
    steps = list(geodesic_steps(g, Connection.flat(1), [0.0, 0.0], [0.8, 0.6], 1e-3, 1000))
    u, v, a = (np.array(column) for column in zip(*((s.u, s.v, s.a) for s in steps)))

    def dots(w):    # w @ w per step, through the per-row product of `@`
        return (w[:, None, :] @ w[:, :, None])[:, 0, 0]

    speeds = 4.0 / (1.0 + dots(u)) ** 2 * dots(v)
    drift = float(np.abs(speeds - speeds[0]).max())
    # each step is the order-2 section jet (x, u, u' = v, u'' = a)
    D, second = v[:, :, None], a[:, :, None, None]
    inv = inverse_top_blocks(D, 1)
    G = g.christoffel_arrays([s.values for s in steps])
    table = residual_table(G, cover_first(D, inv), cover_second(D, second, inv))
    resid = worst(np.abs(table).max(axis=(1, 2, 3)).tolist())
    return _result(9, "sphere geodesics: energy drift and covered residual", (drift, resid), tol,
                   detail=f"drift {drift:.2e}, residual {resid:.2e}")


def criterion_10(cfg):
    """induced Christoffels are quadratic in each first-derivative slot"""
    tol = _tol(cfg, 1e-12)
    rng = spawn_rng(cfg.seed, 10)
    deviations = []
    for n, m in _DIM_CASES:
        g = random_connection(_frame(n + m, n), rng)
        p = random_subjet1(n, m, rng)
        first = p.first_matrix()
        for kk in range(m):
            for lam in range(n):
                def at(t):
                    mod = first.copy()
                    mod[kk, lam] = t
                    return dot_gamma(g, SubJet(n, m, p.base, mod)).table
                v0, v1, v2 = at(0.0), at(1.0), at(2.0)
                t = 3.5
                interp = v0 * (t - 1) * (t - 2) / 2 - v1 * t * (t - 2) + v2 * t * (t - 1) / 2
                deviations.append(np.abs(interp - at(t)).max())
    return _result(10, "degree-two bound via quadratic interpolation", deviations, tol)


def criterion_11(cfg):
    """symmetry checks: linear maps pass, quadratic maps fail, scaling field passes"""
    tol = _tol(cfg, 1e-8)
    rng = spawn_rng(cfg.seed, 11)
    frame = _frame(2, 1)
    g = Connection.zero(frame)
    deviations = []
    ok = True
    for i in range(5):
        a = rng.uniform(-1, 1, (2, 2)) + 2.0 * np.eye(2)
        comps = tuple(
            expr.normal_sum([(Sym(name), Fraction(a[r, k]).limit_denominator(10**6))
                             for k, name in enumerate(frame.names)], Fraction(0))
            for r in range(2)
        )
        report = preserves_distribution(prolong_point_map(comps, frame, 1), g, 1,
                                        samples=15, tol=tol, seed=cfg.seed + i)
        ok = ok and report.passed
        deviations.append(report.worst_residual)
    quad = prolong_point_map((expr.parse("u1", frame), expr.parse("u2 + u1^2", frame)), frame, 1)
    bad = preserves_distribution(quad, g, 1, samples=15, tol=tol, seed=cfg.seed)
    euler = prolong_point_field((Sym("u1"), Sym("u2")), frame, 1)
    field_ok = field_preserves_distribution(euler, g, 1, samples=15, tol=tol, seed=cfg.seed)
    passed = ok and (not bad.passed) and bad.worst_residual > 1e-3 and field_ok.passed
    return _result(11, "symmetry checks on the flat model", deviations + [field_ok.worst_residual],
                   tol, passed)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all(cfg=AcceptanceConfig()):
    return [fn(cfg) for fn in ALL_CRITERIA]
