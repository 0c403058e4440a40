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
from .connections import Connection, grass_shift, invariants_match, pi_deviations, projective_shift
from .errors import worst
from .expr import Const, CoordinateFrame, Sym
from .geodesy import (
    covering_commutation_deviations,
    ddot_gamma,
    ddot_second,
    dot_gamma_table,
    dot_gamma_via_xi_table,
    extension_deviation,
    extension_deviations,
    geodesic_steps,
    grass_equivalent,
    quotient_diagram_deviations,
    residual2,
    residual_table,
    row_dot,
)
from .jets import ParamMap, cover2, cover_first, cover_second, inverse_top_blocks, prolong
from .sampling import (
    Draw,
    Polynomials,
    WordStream,
    christoffel_stack,
    connection_draw,
    draw_connection,
    draw_polynomials,
    polynomial_terms,
    random_affine,
    random_connection,
    random_subjet1,
    secjet1_draw,
    spawn_rng,
    subjet1_draw,
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


def _walk_cases(seed, stream, layouts, count):
    """The `Walked` of `count` samples read from stream `stream` of the
    seed, sample i drawn by layouts[i % 4], one per `_DIM_CASES` entry, and
    the samples of each case."""
    with WordStream(spawn_rng(seed, stream)) as rng:
        walked = rng.walk([layouts[i % len(layouts)] for i in range(count)])
    return walked, [np.arange(k, count, len(layouts)) for k in range(len(layouts))]


def _stack(frame, terms, points):
    """The arrays of `christoffel_stack`, or the first of its failures
    raised, as a per-point `christoffel_at` raises it."""
    G, failures = christoffel_stack(frame, terms, points)
    if failures:
        raise failures[min(failures)]
    return G


def _theta_per_case(walked, j, samples, x):
    """The arrays of each case's Θ, item j of its samples, at x[k] for
    case k: one `_stack` per n, over the cases that share it."""
    out = [None] * len(_DIM_CASES)
    for n in sorted({n for n, _ in _DIM_CASES}):
        cases = [k for k, (nk, _) in enumerate(_DIM_CASES) if nk == n]
        joined = np.concatenate([samples[k] for k in cases])
        Th = _stack(_theta_frame(n), walked.stacked_terms(j, joined), np.concatenate([x[k] for k in cases]))
        for k, part in zip(cases, np.split(Th, np.cumsum([len(samples[k]) for k in cases])[:-1])):
            out[k] = part
    return out


def _per_case(stacks, kernel):
    """The deviations of the samples in sample order, where sample i has
    dimension case i % 4 and stacks[k] holds the C-contiguous stacked
    arrays of the samples of case k: one `kernel` call per case."""
    out = [None] * sum(len(arrays[0]) for arrays in stacks)
    for k, arrays in enumerate(stacks):
        out[k::len(stacks)] = kernel(*arrays).tolist()
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
    start = time.perf_counter()
    frames = [_frame(n + m, n) for n, m in _DIM_CASES]
    layouts = [(connection_draw(f), subjet1_draw(n, m)) for f, (n, m) in zip(frames, _DIM_CASES)]
    walked, samples = _walk_cases(cfg.seed, 1, layouts, 200)
    stacks = []
    for f, s in zip(frames, samples):
        base, first = walked.parts(1, s)
        stacks.append((_stack(f, walked.stacked_terms(0, s), base), first))

    def residual(G, D):
        return np.abs(residual_table(G, D, ddot_second(G, D))).max(axis=(1, 2, 3))

    deviations = _per_case(stacks, residual)
    elapsed = time.perf_counter() - start
    return _result(1, "defining identity on 200 random connections", deviations, tol,
                   elapsed < 5.0, f"elapsed {elapsed:.2f}s")


def criterion_2(cfg):
    """auxiliary-connection construction is independent of the choice"""
    tol = _tol(cfg, 1e-12)
    deviations = []
    with WordStream(spawn_rng(cfg.seed, 2)) as rng:
        for n, m in _DIM_CASES:
            g = draw_connection(_frame(n + m, n), rng)
            for _ in range(3):
                p = random_subjet1(n, m, rng)
                G = g.christoffel_at(p.base)
                # the 50 auxiliary tables of this jet: the numbers of 50 `XiTable.random` draws
                via = dot_gamma_via_xi_table(G, rng.uniform(-1.0, 1.0, (50, n + m, n, n)), p.first)
                deviations += np.abs(via - dot_gamma_table(G, p.first)).max(axis=(1, 2, 3)).tolist()
    return _result(2, "independence of the auxiliary connection", deviations, tol)


def criterion_3(cfg):
    """projective change preserves the trace-adjusted invariants"""
    tol = _tol(cfg, 1e-10)
    frames = [_frame(l, 1) for l in (2, 3)]
    # case c draws g, Φ and the 12 points of its `pi_deviation` from stream
    # 3, and its 10 jets of `extension_deviation` from stream 0 of seed + c
    layouts = [(connection_draw(f), Polynomials(f.names, f.dim), Draw(((12, f.dim),))) for f in frames]
    walked, samples = _walk_cases(cfg.seed, 3, layouts, 50)
    jets = [spawn_rng(cfg.seed + case, 0).uniform(-1.0, 1.0, (10, 2 * frames[case % 2].dim - 1))
            for case in range(50)]
    pi, extension = [None] * 50, [None] * 50
    for f, s in zip(frames, samples):
        l = f.dim
        shifted = [projective_shift(walked.connection(0, c, f), list(walked.polynomials(1, c).values()))
                   for c in s.tolist()]
        jet = np.stack([jets[c] for c in s])
        points = np.concatenate([walked.parts(2, s)[0], jet[..., :l]], axis=1)
        # g and Γ' at the 12 points, then the 10 jets, of each case; no
        # value can fail to be finite: |k| <= 1000 thousandths, degree <= 2
        # and |x| <= 1 bound every term
        G1, G2 = (_stack(f, terms, points) for terms in (walked.stacked_terms(0, s), polynomial_terms(shifted)))
        pi_devs = pi_deviations(*(np.ascontiguousarray(G[:, :12]) for G in (G1, G2)))
        extension_devs = extension_deviations(*(np.ascontiguousarray(G[:, 12:]) for G in (G1, G2)),
                                              jet[..., l:].reshape(len(s), 10, l - 1, 1))
        for c, p, e in zip(s.tolist(), pi_devs.tolist(), extension_devs.tolist()):
            pi[c], extension[c] = worst(p), worst(e)
    deviations = [d for pair in zip(pi, extension) for d in pair]
    return _result(3, "projective invariance of the trace-adjusted table", deviations, tol,
                   all(d <= tol for d in extension))


def criterion_4(cfg):
    """admissible shifts preserve the invariant families and the equation"""
    tol = _tol(cfg, 1e-10)
    deviations = []
    ok = True
    with WordStream(spawn_rng(cfg.seed, 4)) as rng:
        for l, n in ((2, 1), (3, 1), (3, 2), (4, 2)):
            frame = _frame(l, n)
            g = draw_connection(frame, rng)
            psi = draw_polynomials(frame.names, rng, n)
            chi = draw_polynomials(frame.names, rng, l - n) if n == 1 else None
            shifted = grass_shift(g, n, psi, chi)
            inv_ok, inv_dev = invariants_match(g, shifted, n, rng, tol=tol)
            deviation = extension_deviation(g, shifted, n, samples=20, seed=cfg.seed + l)
            ok = ok and inv_ok and deviation <= tol
            deviations += [inv_dev, deviation]
        # a non-admissible perturbation must be detected; the tweak is left
        # unsimplified on purpose, so this one case builds trees
        frame = _frame(3, 1)
        g = random_connection(frame, rng)
    tweaked = Connection.from_entries(
        frame, {**dict(g.christoffel), (1, 1, 2): g.gamma(1, 2, 1) + Const(Fraction(1))}
    )
    verdict = grass_equivalent(g, tweaked, 1, samples=20, tol=tol, seed=cfg.seed + 99)
    detected = (not verdict.equivalent) and verdict.max_deviation > 1e-3 and not verdict.invariants_equal
    return _result(4, "invariance under admissible shifts, detection of others", deviations, tol,
                   ok and detected)


def _section_jet_stacks(cfg, stream, count, tangent):
    """The stacked arrays of criteria 5 and 6 per case: g's and Θ's
    Christoffel arrays at each section jet's u and x, its first
    derivatives and, with `tangent`, a tangent vector (dx, du, dd) drawn
    after it."""
    frames = [_frame(n + m, n) for n, m in _DIM_CASES]
    layouts = [(connection_draw(f), connection_draw(_theta_frame(n)), secjet1_draw(n, n + m))
               + ((Draw(((n,), (n + m,), (n + m, n))),) if tangent else ())
               for f, (n, m) in zip(frames, _DIM_CASES)]
    walked, samples = _walk_cases(cfg.seed, stream, layouts, count)
    jets = [walked.parts(2, s) for s in samples]
    thetas = _theta_per_case(walked, 1, samples, [x for _, x, _ in jets])
    return [(_stack(f, walked.stacked_terms(0, s), u), Th, first)
            + (walked.parts(3, s) if tangent else ())
            for f, s, (first, x, u), Th in zip(frames, samples, jets, thetas)]


def criterion_5(cfg):
    """extend-then-project equals project-then-extend"""
    tol = _tol(cfg, 1e-10)
    deviations = _per_case(_section_jet_stacks(cfg, 5, 200, False), covering_commutation_deviations)
    return _result(5, "covering commutation at 200 section jets", deviations, tol)


def criterion_6(cfg):
    """the induced connection is the quotient of the parametrized one"""
    tol = _tol(cfg, 1e-10)
    deviations = _per_case(_section_jet_stacks(cfg, 6, 100, True), quotient_diagram_deviations)
    return _result(6, "quotient diagram at 100 tangent vectors", deviations, tol)


def criterion_7(cfg):
    """affine maps act by symmetries; the orbit map is well defined"""
    tol = _tol(cfg, 1e-10)
    orbit_tol = _tol(cfg, 1e-12)
    deviations = []
    ok = True
    with WordStream(spawn_rng(cfg.seed, 7)) as rng:
        for i in range(20):
            n, m = _DIM_CASES[i % 4]
            g = draw_connection(_frame(n + m, n), rng)
            theta = Connection.flat(n)
            aff = random_affine(n, rng)
            report = affine_symmetry_check(g, theta, aff, samples=50, tol=tol, seed=cfg.seed + i)
            ok = ok and report.passed
            deviations.append(report.worst_residual)
        g = draw_connection(_frame(3, 1), rng)
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
    speeds = 4.0 / (1.0 + row_dot(u, u)) ** 2 * row_dot(v, v)
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
    deviations = []
    with WordStream(spawn_rng(cfg.seed, 10)) as rng:
        for n, m in _DIM_CASES:
            g = draw_connection(_frame(n + m, n), rng)
            p = random_subjet1(n, m, rng)
            G, first = g.christoffel_at(p.base), p.first_matrix()
            for kk in range(m):
                for lam in range(n):
                    def at(t):
                        mod = first.copy()
                        mod[kk, lam] = t
                        return dot_gamma_table(G, mod)
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
