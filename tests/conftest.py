"""Shared fixtures and helpers: frames, the round-sphere chart connections,
the metric-to-Christoffel helper used to derive one, the numpy geodesic
integrator that the generated kernel is checked against within rounding,
the list-based RK4 stepper that the generated loop is checked against bit
for bit, the per-step geodesic residual that the batched one is checked
against, the `simplify`-based random polynomials that the sampler is
checked against, the one-sample-at-a-time comparisons, affine and
reparametrization symmetry checks, distribution checks and `cover-check`
sampling that the batched ones are checked against, the per-jet
distribution generators, covering projections, residual and covering
deviations that the array formulas are checked against, the per-jet loop
of `dot_gamma_via_xi` and the per-sample orbit check that the batched ones
are checked against, the per-sample loops of criteria 1, 2, 5, 6, 7 and 9,
criteria 3 and 4 on the trees of their random connections and shifts, the
random polynomials, connections, section jets and affine maps and the
walks of a `WordStream` drawn one call at a time (on a bare Generator, or
on the stream's words by the scalar 32-bit and `integers` draws), a word
stream with a planted fault that the stream's tests must catch, a
hypothesis strategy for expression trees, and helpers only the tests use
(test-only, not public API).

Hypothesis runs derandomized and without an example database, so every
run of the suite draws the same examples."""
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from jetgeo import expr
from jetgeo.connections import (
    Connection,
    grass_arrays,
    grass_shift,
    invariants_match,
    pi_array,
    pi_deviation,
    projective_shift,
)
from jetgeo.acceptance import _DIM_CASES, _frame, _theta_frame, sphere_chart_connection
from jetgeo.errors import (
    DimensionMismatchError,
    FrameMismatchError,
    SingularJacobianError,
    draw_regular,
    require_finite,
    worst,
)
from jetgeo.expr import FUNCTION_NAMES, Add, Const, CoordinateFrame, Div, Func, Mul, Pow, Sym
from jetgeo.geodesy import (
    EquivalenceVerdict,
    GeodesicStep,
    ParamResidual2,
    Residual2,
    _check_subjet,
    _spray,
    covering_commutation_deviation,
    ddot_gamma,
    ddot_gamma_pro,
    dot_gamma,
    dot_gamma_pro,
    extension_deviation,
    integrate_geodesic,
    param_residual2,
    param_residual_table,
    quotient_diagram_deviation,
)
from jetgeo.jets import AffineMap, ParamMap, SecJet, SubJet, affine_act, reparam_act
from jetgeo import sampling
from jetgeo.sampling import (
    MIN_DET,
    PolynomialConnection,
    Walked,
    WordStream,
    Polynomials,
    _monomial_cores,
    _polynomial,
    draw_polynomials,
    random_connection,
    random_point,
    random_subjet1,
    spawn_rng,
)
from jetgeo.symmetry import (
    OrbitReport,
    SymmetryReport,
    _span_residual,
    _span_scale,
    _subjet_point,
    commutator,
    distribution_generator_expressions,
    orbit_quotient_check,
)

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def levi_civita_connection(metric, frame):
    """Levi-Civita Christoffels of a symbolic metric:
    Γ_a{}^c{}_b = (1/2) g^{cd} (∂_a g_{db} + ∂_b g_{da} - ∂_d g_{ab})."""
    l = frame.dim
    names = frame.names
    inv = expr.matrix_inverse([list(row) for row in metric])
    half = Const(Fraction(1, 2))
    entries = {}
    for a in range(l):
        for b in range(a, l):
            for c in range(l):
                terms = []
                for d in range(l):
                    bracket = (
                        expr.differentiate(metric[d][b], names[a])
                        + expr.differentiate(metric[d][a], names[b])
                        - expr.differentiate(metric[a][b], names[d])
                    )
                    terms.append(inv[c][d] * bracket)
                e = expr.simplify(half * expr.Add(tuple(terms)))
                if not expr.is_zero(e):
                    entries[(a + 1, b + 1, c + 1)] = e
    return Connection(frame, entries)


def sphere_metric(frame):
    """Round metric of the unit sphere in a stereographic chart:
    g = 4 (1 + u1^2 + u2^2)^-2 δ."""
    conf = expr.parse("4/(1 + u1^2 + u2^2)^2", frame)
    zero = Const(Fraction(0))
    return [[conf, zero], [zero, conf]]


@pytest.fixture(scope="session")
def sphere_frame():
    return CoordinateFrame(("u1", "u2"), 1)


@pytest.fixture(scope="session")
def sphere_connection(sphere_frame):
    return levi_civita_connection(sphere_metric(sphere_frame), sphere_frame)


def sphere_spec(l):
    """JSON connection spec of the round metric 4 (1 + |u|^2)^-2 δ on R^l in
    the stereographic chart: l^2 entries with A = B and l(l - 1) with A < B,
    over 2l distinct texts, ±2 u_a over the shared denominator."""
    names = [f"u{i}" for i in range(1, l + 1)]
    den = "(1 + " + " + ".join(f"{u}^2" for u in names) + ")"
    items = []
    for a in range(1, l + 1):
        for b in range(a, l + 1):
            for c in range(1, l + 1):
                if a == b:
                    text = f"-2*u{a}/{den}" if c == a else f"2*u{c}/{den}"
                elif c in (a, b):
                    text = f"-2*u{a + b - c}/{den}"
                else:
                    continue
                items.append({"lower": [a, b], "upper": c, "expr": text})
    return {"coords": names, "n": 1, "christoffel": items}


def sphere_chart(l):
    """The connection of `sphere_spec(l)`, each entry parsed on its own."""
    spec = sphere_spec(l)
    frame = CoordinateFrame(tuple(spec["coords"]), 1)
    return Connection(frame, {(*item["lower"], item["upper"]): expr.parse(item["expr"], frame)
                              for item in spec["christoffel"]})


def geodesic_oracle(g, theta, start, velocity, h, steps):
    """The RK4 loop of `geodesy.geodesic_steps` with the acceleration
    -Γ_A{}^C{}_B v^A v^B + Θ_1{}^1{}_1 v^C summed by numpy over
    `christoffel_at` arrays.  Yields (x, u, v, a) per point; a DomainError
    propagates after the points computed before it."""

    def accel(x, u, v):
        G = g.christoffel_at(u)
        th = theta.christoffel_at([x])[0, 0, 0]
        return -np.einsum("ACB,A,B->C", G, v, v) + th * v

    x = 0.0
    u = np.asarray(start, dtype=float)
    v = np.asarray(velocity, dtype=float)
    for step in range(steps + 1):
        a = accel(x, u, v)
        yield x, u, v, a
        if step == steps:
            return
        k1u, k1v = v, a
        k2u, k2v = v + 0.5 * h * k1v, accel(x + 0.5 * h, u + 0.5 * h * k1u, v + 0.5 * h * k1v)
        k3u, k3v = v + 0.5 * h * k2v, accel(x + 0.5 * h, u + 0.5 * h * k2u, v + 0.5 * h * k2v)
        k4u, k4v = v + h * k3v, accel(x + h, u + h * k3u, v + h * k3v)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        x += h


def geodesic_steps_oracle(g, theta, start, velocity, h, steps):
    """`geodesy.geodesic_steps` as a Python loop over lists, one `accel` call
    per RK4 stage: the same float operations in the same order as the
    generated loop, without its finiteness check.  Yields `GeodesicStep`s; a
    DomainError propagates after the steps computed before it."""
    table, spray = g.table.compiled(), _spray(tuple(g.christoffel), g.dim)
    theta_table = theta.table.compiled() if theta.christoffel else None

    def accel(x, u, v):
        values = table(*u)
        if theta_table is None:
            return values, 0.0, spray(values, *v)
        th, = theta_table(x)
        return values, th, [ac + th * vc for ac, vc in zip(spray(values, *v), v)]

    x, u, v = 0.0, [float(c) for c in start], [float(c) for c in velocity]
    half, sixth = 0.5 * h, h / 6.0
    for step in range(steps + 1):
        values, th, a = accel(x, u, v)
        yield GeodesicStep(x, tuple(u), tuple(v), tuple(a), values, th)
        if step == steps:
            return
        v2 = [p + half * q for p, q in zip(v, a)]
        a2 = accel(x + half, [p + half * q for p, q in zip(u, v)], v2)[2]
        v3 = [p + half * q for p, q in zip(v, a2)]
        a3 = accel(x + half, [p + half * q for p, q in zip(u, v2)], v3)[2]
        v4 = [p + h * q for p, q in zip(v, a3)]
        a4 = accel(x + h, [p + h * q for p, q in zip(u, v3)], v4)[2]
        u = [p + sixth * (k1 + 2 * k2 + 2 * k3 + k4) for p, k1, k2, k3, k4 in zip(u, v, v2, v3, v4)]
        v = [p + sixth * (k1 + 2 * k2 + 2 * k3 + k4) for p, k1, k2, k3, k4 in zip(v, a, a2, a3, a4)]
        x += h


def geodesic_step_residual(g, step):
    """`param_residual2` at one `geodesy.GeodesicStep` of g by its own
    formula, from its own `christoffel_array`: the per-step oracle for
    `geodesy.geodesic_residuals`."""
    D, second = np.array(step.v)[:, None], np.array(step.a)[:, None, None]
    return ParamResidual2(1, len(step.v), param_residual_table(g.christoffel_array(step.values),
                                                               np.array([[[step.theta]]]), D, second))


def random_expressions(names, rng, count):
    """The trees of `sampling.draw_polynomials(names, rng, count)`: each one
    to three monomials of total degree <= 2, with coefficients k/1000, k
    drawn from [-1000, 1000]."""
    cores = _monomial_cores(tuple(names))
    return [_polynomial(cores, thousandths) for thousandths in draw_polynomials(names, rng, count)]


def random_polynomial(names, rng):
    """One random polynomial over the names, by `random_expressions`."""
    return random_expressions(names, rng, 1)[0]


def random_polynomial_oracle(names, rng):
    """`random_polynomial` the slow way: the same draws, in the same order,
    assembled term by term and normalised by `simplify`."""
    monomials = [()]
    for d in (1, 2):
        monomials.extend(combinations_with_replacement(range(len(names)), d))
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        coeff = Fraction(int(rng.integers(-1000, 1001)), 1000)
        mono = monomials[int(rng.integers(0, len(monomials)))]
        terms.append(Mul((Const(coeff),) + tuple(Sym(names[i]) for i in mono)))
    return expr.simplify(expr.Add(tuple(terms)))


def differentiate_oracle(e, coord):
    """`expr.differentiate` by the general path alone: the product-rule
    tree, simplified."""
    return expr.simplify(expr._diff(e, coord))


def random_connection_oracle(frame, rng, fill=0.6):
    """`sampling.random_connection` with the fill drawn by `uniform()` and
    the entries by `random_polynomial_oracle`."""
    l = frame.dim
    entries = {}
    for a in range(1, l + 1):
        for b in range(a, l + 1):
            for c in range(1, l + 1):
                if rng.uniform() < fill:
                    entries[(a, b, c)] = random_polynomial_oracle(frame.names, rng)
    return Connection(frame, entries)


def draw_thousandths_oracle(size, rng):
    """One random polynomial over `size` monomials drawn one call at a time,
    as `sampling.Polynomials` lays it out: the term count, then each term's
    thousandths and monomial index.  Returns the thousandths summed per
    index, in first-drawn order; a sum may cancel to 0."""
    thousandths = {}
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(-1000, 1001))
        index = int(rng.integers(0, size))
        thousandths[index] = thousandths.get(index, 0) + k
    return thousandths


def draw_connection_oracle(frame, rng, fill=0.6):
    """`sampling.draw_connection` one call at a time: a `random()` fill per
    candidate (A, B, C), A <= B, and `draw_thousandths_oracle` for each
    stored one."""
    l, size = frame.dim, len(_monomial_cores(frame.names))
    entries = {}
    for a in range(1, l + 1):
        for b in range(a, l + 1):
            for c in range(1, l + 1):
                if rng.random() < fill:
                    entries[(a, b, c)] = draw_thousandths_oracle(size, rng)
    return PolynomialConnection(frame, entries)


def secjet1_arrays(n, l, rng):
    """The (x, u, first) of a random order-1 section jet drawn one call at a
    time, as `sampling.secjet1_draw` lays it out: `first` is redrawn until
    |det first[:n]| >= `sampling.MIN_DET`, then x and u are drawn."""

    def draw():
        first = rng.uniform(-1.0, 1.0, (l, n))
        if abs(np.linalg.det(first[:n, :])) < sampling.MIN_DET:
            raise SingularJacobianError(sampling._SECJET_GATE)
        return rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, l), first

    return draw_regular(draw, 1)[0][0]


def random_secjet1(n, l, rng):
    """Random order-1 section jet drawn by `secjet1_arrays`."""
    return SecJet(n, l, *secjet1_arrays(n, l, rng))


def random_affine(n, rng):
    """Random affine map of the parameter space drawn one call at a time, as
    `sampling.affine_draw` lays it out: a redrawn until |det a| >=
    `sampling.MIN_DET`, then b."""

    def draw():
        a = rng.uniform(-1.0, 1.0, (n, n))
        if abs(np.linalg.det(a)) < sampling.MIN_DET:
            raise SingularJacobianError(sampling._AFFINE_GATE)
        return AffineMap(a, rng.uniform(-1.0, 1.0, n))

    return draw_regular(draw, 1)[0][0]


def walk_oracle(stream, layouts):
    """`WordStream.walk` one draw at a time, by the `random`, `integers` and
    `uniform` calls of `stream`: each `Polynomials` candidate by a fill and
    `draw_thousandths_oracle`'s calls, each `Draw` by a `uniform` call per
    array, one with a gate redrawn through `draw_regular` as
    `secjet1_arrays` redraws.  Returns the `Walked` the walk must equal."""
    numbers, starts, entries, terms = [], [], [], []
    for i, layout in enumerate(layouts):
        for j, item in enumerate(layout):
            if isinstance(item, Polynomials):
                for slot in range(item.count):
                    if item.fill is None or stream.random() < item.fill:
                        for _ in range(int(stream.integers(1, 4))):
                            k = int(stream.integers(-1000, 1001))
                            terms.append((len(entries), k, int(stream.integers(0, item.size))))
                        entries.append((i, j, slot))
                starts.append(-1)
                continue

            def draw(item=item):
                first = stream.uniform(-1.0, 1.0, item.shapes[0])
                n = item.shapes[0][-1]
                if item.gate is not None and abs(np.linalg.det(first[:n])) < MIN_DET:
                    raise SingularJacobianError(item.gate)
                return [first] + [stream.uniform(-1.0, 1.0, shape) for shape in item.shapes[1:]]

            starts.append(len(numbers))
            numbers += [x for array in draw_regular(draw, 1)[0][0] for x in array.ravel().tolist()]
    return Walked(layouts, np.array(numbers), starts, entries, terms)


class GeneratorStream:
    """A bare Generator's own calls behind a stream's face: `random`,
    `integers` and `uniform` call it, and `walk` is `walk_oracle` of
    them.  The criteria run on it as on the Generator itself."""

    def __init__(self, rng):
        self._rng = rng

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def random(self):
        return self._rng.random()

    def integers(self, low, high):
        return int(self._rng.integers(low, high))

    def uniform(self, *args):
        return self._rng.uniform(*args)

    def walk(self, layouts):
        return walk_oracle(self, layouts)


class ScalarWordStream(WordStream):
    """A `WordStream` that reads its walks one draw at a time: a 32-bit draw
    is the buffered high half of the last word split, or else the low half
    of a new word, whose high half it buffers; `integers` is Lemire's
    method on them; `walk` is `walk_oracle` of these calls.  It is the
    scalar oracle of the walk's words, and its `integers` is checked
    against the Generator's."""

    def _uint32(self):
        if self._has_half:
            self._has_half = False
            return self._half
        if self._pos == self._end:
            self._set_chunk(self._fresh(sampling._WORDS_PER_CHUNK))
        word = int(self._words[self._pos])
        self._pos += 1
        self._has_half, self._half = True, word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low, high):
        """``int(rng.integers(low, high))``, by Lemire's method: with span
        r = high - low, m = x * r for a 32-bit draw x, redrawn while
        m mod 2^32 < (2^32 - r) mod r, gives low + (m >> 32).  A span of 1
        draws nothing."""
        span = high - low
        if span == 1:
            return low
        if not 1 <= span <= 1 << 32:
            raise ValueError(f"integers({low}, {high}) needs 1 <= high - low <= 2**32")
        m = self._uint32() * span
        if m & 0xFFFFFFFF < span:
            threshold = ((1 << 32) - span) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * span
        return low + (m >> 32)

    def walk(self, layouts):
        return walk_oracle(self, layouts)


class HalfIgnoringStream(ScalarWordStream):
    """A word stream with a planted fault: each 32-bit draw of its walks
    takes a new word and ignores the buffered high half of the last one,
    which numpy serves first.  The stream's tests must tell it from the
    Generator."""

    def _uint32(self):
        self._has_half = False
        return super()._uint32()


TREE_NAMES = ("u", "v")


def trees():
    """Expression trees over TREE_NAMES and the whole node set: every
    function, negative exponents, unguarded denominators and sqrt arguments.
    One leaf in ten is an edge case: a constant beyond or at the edge of
    float range, or the symbol "w", which a table over TREE_NAMES leaves
    unassigned."""
    plain = st.one_of(st.fractions(-4, 4, max_denominator=6).map(Const), st.sampled_from(TREE_NAMES).map(Sym))
    edge = st.sampled_from([Const(Fraction(10) ** 200), Const(Fraction(10) ** 308),
                            Const(Fraction(10) ** 400), Const(Fraction(1, 10 ** 400)), Sym("w")])
    leaves = st.integers(0, 9).flatmap(lambda k: edge if k == 0 else plain)

    def nodes(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=4).map(lambda terms: Add(tuple(terms))),
            st.lists(children, min_size=2, max_size=3).map(lambda factors: Mul(tuple(factors))),
            st.builds(Pow, children, st.integers(-3, 4)),
            st.builds(Div, children, children),
            st.builds(Func, st.sampled_from(FUNCTION_NAMES), children),
        )

    return st.recursive(leaves, nodes, max_leaves=12)


# ---------------------------------------------------------------------------
# helpers only the tests use


def connection_to_dict(g):
    """The JSON spec structure of a connection, entries printed by `to_text`."""
    return {
        "coords": list(g.frame.names),
        "n": g.frame.split,
        "christoffel": [
            {"lower": [a, b], "upper": c, "expr": expr.to_text(e)}
            for (a, b, c), e in sorted(g.christoffel.items())
        ],
        "singular_points": [list(p) for p in g.singular_points],
    }


def random_secjet2(n, l, rng):
    """Random admissible order-2 section jet: a symmetrized second block,
    then `random_secjet1`."""
    second = rng.uniform(-1.0, 1.0, (l, n, n))
    second = 0.5 * (second + np.transpose(second, (0, 2, 1)))
    return random_secjet1(n, l, rng).with_second(second)


def top_det(t):
    """det of a section jet's base-direction block."""
    return float(np.linalg.det(t.first[: t.n, :]))


def is_immersion(t, tol=1e-9):
    """Whether a section jet's Jacobian has full rank n."""
    return np.linalg.matrix_rank(t.first, tol=tol) == t.n


def is_immersion_at(s, x, tol=1e-9):
    """Whether a `ParamMap`'s Jacobian has full rank n at x."""
    return np.linalg.matrix_rank(s.jacobian_at(x), tol=tol) == s.n


def compose(f, g):
    """The affine map f after g: x -> f(g(x))."""
    return AffineMap(f.a @ g.a, f.a @ g.b + f.b)


# ---------------------------------------------------------------------------
# the sampled checks one sample at a time: `draw_regular`'s per-sample form,
# one `christoffel_at` call per point and one jet per sample


def max_difference_oracle(g1, g2, arrays, rng):
    """`connections._max_difference` point by point; `arrays` maps one
    `christoffel_at` array to its families."""

    def draw():
        point = rng.uniform(-1.0, 1.0, g1.dim)
        pairs = zip(arrays(g1.christoffel_at(point)), arrays(g2.christoffel_at(point)))
        return require_finite(worst(np.abs(a - b).max() for a, b in pairs), "invariant deviation")

    return worst(draw_regular(draw, 12)[0])


def pi_deviation_oracle(g1, g2, rng):
    return max_difference_oracle(g1, g2, lambda G: (pi_array(G),), rng)


def invariants_match_oracle(g1, g2, n, rng, tol=1e-10):
    max_dev = max_difference_oracle(g1, g2, lambda G: grass_arrays(G, n), rng)
    return max_dev <= tol, max_dev


def extension_deviation_oracle(g1, g2, n, samples=50, seed=0):
    """`geodesy.extension_deviation` jet by jet, through `random_point` and
    `ddot_gamma`."""
    m = g1.dim - n
    rng = spawn_rng(seed, 0)

    def draw():
        p = SubJet(n, m, random_point(g1, rng), rng.uniform(-1.0, 1.0, (m, n)))
        deviation = np.abs(ddot_gamma(g1, p).second_array() - ddot_gamma(g2, p).second_array()).max()
        return require_finite(deviation, "second-order extension deviation")

    return worst(draw_regular(draw, samples)[0])


def grass_equivalent_oracle(g1, g2, n, samples=50, tol=1e-10, seed=0):
    """`geodesy.grass_equivalent` through `extension_deviation_oracle` and
    `invariants_match_oracle`."""
    max_dev = extension_deviation_oracle(g1, g2, n, samples, seed)
    inv_equal, inv_dev = invariants_match_oracle(g1, g2, n, spawn_rng(seed, 1), tol=tol)
    return EquivalenceVerdict(max_dev <= tol, max_dev, inv_equal, inv_dev, samples, tol)


def affine_symmetry_check_oracle(g, theta, aff, samples=25, tol=1e-10, seed=0):
    """`symmetry.affine_symmetry_check` jet by jet, through
    `random_secjet1`, `ddot_gamma_pro`, `affine_act` and `param_residual2`."""
    rng = spawn_rng(seed, 0)

    def draw():
        p = random_secjet1(aff.n, g.dim, rng)
        acted = affine_act(aff, ddot_gamma_pro(g, theta, p))
        return p.x + p.u, require_finite(param_residual2(g, theta, acted).max_abs(), "residual")

    return SymmetryReport.sample(draw, samples, tol)


def reparam_symmetry_check_oracle(g, theta, phi, x_frame, samples=25, tol=1e-10, seed=0):
    """`symmetry.reparam_symmetry_check` jet by jet, through
    `random_secjet1`, `ddot_gamma_pro`, `reparam_act` and `param_residual2`."""
    phi = ParamMap(x_frame, phi)
    rng = spawn_rng(seed, 0)

    def draw():
        p = random_secjet1(theta.dim, g.dim, rng)
        acted = reparam_act(phi, ddot_gamma_pro(g, theta, p))
        return p.x + p.u, require_finite(param_residual2(g, theta, acted).max_abs(), "residual")

    return SymmetryReport.sample(draw, samples, tol)


def distribution_fields_oracle(g, p):
    """`geodesy.distribution_fields` row by row from `dot_gamma`."""
    dg = dot_gamma(g, p)
    n, m, l = p.n, p.m, p.l
    D = p.first_matrix()
    vert = -(np.transpose(dg.table[:n, :, :], (1, 0, 2))
             + np.einsum("jl,jkx->klx", D, dg.table[n:, :, :]))  # (k, lam, xi)
    rows = np.zeros((n, l + m * n))
    for lam in range(n):
        rows[lam, lam] = 1.0
        rows[lam, n:l] = D[:, lam]
        rows[lam, l:] = vert[:, lam, :].reshape(m * n)
    return rows


def pro_distribution_rows_oracle(g, theta, p):
    """`geodesy.pro_distribution_rows` at one section jet, row by row from
    `ddot_gamma_pro`."""
    q2 = ddot_gamma_pro(g, theta, p)
    n, l = p.n, p.l
    rows = np.zeros((n, n + l + l * n))
    d1 = p.first_matrix()
    d2 = q2.second_array()
    for lam in range(n):
        rows[lam, lam] = 1.0
        rows[lam, n:n + l] = d1[:, lam]
        rows[lam, n + l:] = d2[:, :, lam].reshape(-1)
    return rows


def preserves_distribution_oracle(jmap, g, n, samples=25, tol=1e-8, seed=0, theta=None):
    """`symmetry.preserves_distribution` jet by jet, through
    `random_subjet1` or `random_secjet1`, `JetMap.apply`,
    `JetMap.jacobian_at` and the per-jet generator oracles."""
    l = g.dim
    m = l - n
    rng = spawn_rng(seed, 0)

    def draw():
        if jmap.kind == "subjet":
            p = random_subjet1(n, m, rng)
            point, rows = _subjet_point(p), distribution_fields_oracle(g, p)
        else:
            p = random_secjet1(n, l, rng)
            point = (*p.x, *p.u, *p.first_matrix().ravel().tolist())
            rows = pro_distribution_rows_oracle(g, theta, p)
        image = jmap.apply(point)
        jac = jmap.jacobian_at(point)
        if jmap.kind == "subjet":
            rows_image = distribution_fields_oracle(g, SubJet(n, m, image[:l], image[l:].reshape(m, n)))
        else:
            q = SecJet(n, l, image[:n], image[n:n + l], image[n + l:].reshape(l, n))
            rows_image = pro_distribution_rows_oracle(g, theta, q)
        scale = _span_scale(rows_image)
        local = max(_span_residual(rows_image, jac @ row) / scale for row in rows)
        return point, local

    return SymmetryReport.sample(draw, samples, tol)


def field_preserves_distribution_oracle(f, g, n, samples=25, tol=1e-8, seed=0):
    """`symmetry.field_preserves_distribution` jet by jet, through
    `random_subjet1`, `distribution_fields_oracle` and the per-point table
    of the brackets."""
    m = g.dim - n
    generators = distribution_generator_expressions(g, n)
    chart = generators[0].chart
    brackets = expr.Table([c for x in generators for c in commutator(f, x, chart)], chart)
    rng = spawn_rng(seed, 0)

    def draw():
        p = random_subjet1(n, m, rng)
        point = _subjet_point(p)
        rows = distribution_fields_oracle(g, p)
        values = np.array(brackets(point)).reshape(len(generators), len(chart))
        scale = _span_scale(rows)
        return point, max(_span_residual(rows, v) / scale for v in values)

    return SymmetryReport.sample(draw, samples, tol)


def dot_gamma_via_xi_oracle(G, xi, D):
    """`geodesy.dot_gamma_via_xi_table` at one jet, entry by entry, each dot
    product a 1-d `@`."""
    l, n = G.shape[0], D.shape[1]
    raw = np.zeros((l, l, n))
    for a in range(l):
        for c in range(l):
            for x in range(n):
                total = G[a, c, x]  # δ^lam_xi Γ_A{}^C{}_lam summed over lam
                if c < n:
                    total += xi[a, x, c]
                else:
                    total += xi[a, x, :] @ D[c - n, :]
                total += G[a, c, n:] @ D[:, x]
                raw[a, c, x] = total
    return raw[:, n:, :] - np.einsum("kb,abx->akx", D, raw[:, :n, :])


def orbit_quotient_check_oracle(g, n, samples=25, seed=0, orbit_tol=1e-12, factoring_tol=1e-10):
    """`symmetry.orbit_quotient_check` one sample at a time, through
    `random_secjet1`, `random_affine`, `affine_act`, `cover1`, `cover2` and
    `residual2`, each jet a record."""
    l = g.dim
    m = l - n
    rng = spawn_rng(seed, 0)
    theta = Connection.flat(n)

    def gap(a, b):
        return max(float(np.abs(np.asarray(a.base) - np.asarray(b.base)).max()),
                   float(np.abs(a.first_matrix() - b.first_matrix()).max()))

    def draw():
        t = random_secjet1(n, l, rng)
        base = cover1_oracle(t)
        orbit = max(gap(cover1_oracle(affine_act(random_affine(n, rng), t)), base) for _ in range(10))
        p = random_subjet1(n, m, rng)
        lift = SecJet(n, l, np.zeros(n), p.base, np.vstack([np.eye(n), p.first_matrix()]))
        q = ddot_gamma_pro(g, theta, random_secjet1(n, l, rng))
        return orbit, gap(cover1_oracle(lift), p), residual2_oracle(g, cover2_oracle(q)).max_abs()

    orbit_dev, preimage_dev, factoring_dev = (
        worst(column) for column in zip(*draw_regular(draw, samples)[0])
    )
    passed = orbit_dev <= orbit_tol and preimage_dev <= orbit_tol and factoring_dev <= factoring_tol
    return OrbitReport(orbit_dev, preimage_dev, factoring_dev, passed)


def cover_check_oracle(g, theta, n, samples, rng):
    """`cli.cmd_cover_check`'s sampling jet by jet, through `random_secjet1`
    and the per-jet covering deviations: `draw_regular`'s (results,
    redrawn), each result a (commutation, quotient) pair."""

    def draw():
        p = random_secjet1(n, g.dim, rng)
        tangent = rng.uniform(-1, 1, n), rng.uniform(-1, 1, g.dim), rng.uniform(-1, 1, (g.dim, n))
        c_dev = covering_commutation_deviation(g, theta, p)
        q_dev = quotient_diagram_deviation(g, theta, p, *tangent)
        return require_finite(c_dev, "commutation deviation"), require_finite(q_dev, "quotient deviation")

    return draw_regular(draw, samples)


# ---------------------------------------------------------------------------
# the covering projections, the residual and the covering deviations jet by
# jet, each projection inverting the base-direction block itself


def _inverse_top_block_oracle(t):
    jac = t.first[: t.n, :]
    scale = max(1.0, float(np.abs(jac).max())) ** t.n
    det = float(np.linalg.det(jac))
    if abs(det) < 1e-12 * scale:
        raise SingularJacobianError(
            f"base-direction block determinant {det:.3e} below threshold; "
            "divided chart not concordant at this jet"
        )
    return np.linalg.solve(jac, np.eye(t.n))


def cover1_oracle(t):
    inv = _inverse_top_block_oracle(t)
    first = t.first_matrix()[t.n:, :] @ inv
    return SubJet(t.n, t.m, t.u, first)


def cover2_oracle(t):
    if t.r < 2:
        raise DimensionMismatchError("cover2 needs a jet of order 2")
    inv = _inverse_top_block_oracle(t)  # inv[lam, xi] = x^lam_{u^xi}
    order1 = cover1_oracle(t)
    d1 = t.first_matrix()
    d2 = t.second_array()
    lat2 = d2[t.n:, :, :]
    top2 = d2[: t.n, :, :]
    term1 = np.einsum("jlm,lx,me->jxe", lat2, inv, inv)
    chain = np.einsum("jl,la->ja", d1[t.n:, :], inv)
    term2 = np.einsum("ja,abg,gx,be->jxe", chain, top2, inv, inv)
    second = term1 - term2
    second = 0.5 * (second + np.transpose(second, (0, 2, 1)))
    return order1.with_second(second)


def tangent_cover1_oracle(t, dx, du, dd):
    inv = _inverse_top_block_oracle(t)
    dd = np.asarray(dd, dtype=float)
    lat = t.first_matrix()[t.n:, :]
    dd_out = dd[t.n:, :] @ inv - np.einsum("jb,bx,la,xl->ja", lat, inv, inv, dd[: t.n, :])
    return np.asarray(du, dtype=float).copy(), dd_out


def residual2_oracle(g, q):
    _check_subjet(g, q)
    if q.r < 2:
        raise FrameMismatchError("residual needs an order-2 jet")
    n = q.n
    G = g.christoffel_at(q.base)
    D = q.first_matrix()
    u2 = q.second_array()
    base_part = G[:n, :, :n] + np.einsum("lCi,ix->lCx", G[:n, :, n:], D)
    fibre_part = G[n:, :, :n] + np.einsum("jCi,ix->jCx", G[n:, :, n:], D)
    P = base_part + np.einsum("jl,jCx->lCx", D, fibre_part)
    F = u2 + np.transpose(P[:, n:, :], (1, 0, 2)) - np.einsum("kb,lbx->klx", D, P[:, :n, :])
    table = 0.5 * (F + np.transpose(F, (0, 2, 1)))
    return Residual2(n, q.m, table)


def covering_commutation_deviation_oracle(g, theta, p):
    via_param = cover2_oracle(ddot_gamma_pro(g, theta, p))
    via_sub = ddot_gamma(g, cover1_oracle(p))
    return worst((np.abs(via_param.second_array() - via_sub.second_array()).max(),
                  np.abs(via_param.first_matrix() - via_sub.first_matrix()).max()))


def quotient_diagram_deviation_oracle(g, theta, p, dx, du, dd):
    lift = dot_gamma_pro(g, theta, p)
    dx, du, dd = (np.asarray(v, dtype=float) for v in (dx, du, dd))
    vp = dd - np.einsum("l,lCe->Ce", dx, lift.x_lift) - np.einsum("B,BCe->Ce", du, lift.u_lift)
    _, lhs = tangent_cover1_oracle(p, np.zeros(p.n), np.zeros(p.l), vp)
    du_img, dd_img = tangent_cover1_oracle(p, dx, du, dd)
    rhs = dd_img + np.einsum("akx,a->kx", dot_gamma(g, cover1_oracle(p)).table, du_img)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# criteria 1, 2, 5, 6, 7 and 9 one sample at a time: their deviation lists,
# from one jet record and one kernel call per sample (criterion 7: one
# `affine_symmetry_check_oracle` per affine check), with each random
# connection drawn by `draw_connection_oracle`, built as trees and evaluated
# by `christoffel_at`


def criterion_1_oracle(seed):
    rng = spawn_rng(seed, 1)
    deviations = []
    for i in range(200):
        n, m = _DIM_CASES[i % 4]
        g = draw_connection_oracle(_frame(n + m, n), rng).connection()
        p = random_subjet1(n, m, rng)
        deviations.append(residual2_oracle(g, ddot_gamma(g, p)).max_abs())
    return deviations


def criterion_2_oracle(seed):
    rng = spawn_rng(seed, 2)
    deviations = []
    for n, m in _DIM_CASES:
        g = draw_connection_oracle(_frame(n + m, n), rng).connection()
        for _ in range(3):
            p = random_subjet1(n, m, rng)
            closed = dot_gamma(g, p).table
            for _ in range(50):
                via = dot_gamma_via_xi_oracle(g.christoffel_at(p.base), rng.uniform(-1.0, 1.0, (n + m, n, n)),
                                              p.first_matrix())
                deviations.append(np.abs(via - closed).max())
    return deviations


# criteria 3 and 4 on trees: each random connection and each polynomial
# of a shift built by `random_connection` and `random_expressions`, and each
# shift simplified by `projective_shift` or `grass_shift` on the trees;
# criterion 3 takes its deviations point by point and jet by jet


def criterion_3_oracle(seed):
    deviations = []
    with WordStream(spawn_rng(seed, 3)) as rng:
        for case in range(50):
            l = 2 + case % 2
            frame = _frame(l, 1)
            g = random_connection(frame, rng)
            shifted = projective_shift(g, random_expressions(frame.names, rng, l))
            deviations.append(pi_deviation_oracle(g, shifted, rng))
            deviations.append(extension_deviation_oracle(g, shifted, 1, samples=10, seed=seed + case))
    return deviations


def criterion_4_oracle(seed):
    deviations = []
    with WordStream(spawn_rng(seed, 4)) as rng:
        for l, n in ((2, 1), (3, 1), (3, 2), (4, 2)):
            frame = _frame(l, n)
            g = random_connection(frame, rng)
            psi = random_expressions(frame.names, rng, n)
            chi = random_expressions(frame.names, rng, l - n) if n == 1 else None
            shifted = grass_shift(g, n, psi, chi)
            deviations.append(invariants_match(g, shifted, n, rng)[1])
            deviations.append(extension_deviation(g, shifted, n, samples=20, seed=seed + l))
        # the connection of the non-admissible case, which adds no deviation
        random_connection(_frame(3, 1), rng)
    return deviations


def criterion_5_oracle(seed):
    rng = spawn_rng(seed, 5)
    deviations = []
    for i in range(200):
        n, m = _DIM_CASES[i % 4]
        g = draw_connection_oracle(_frame(n + m, n), rng).connection()
        theta = draw_connection_oracle(_theta_frame(n), rng).connection()
        p = random_secjet1(n, n + m, rng)
        deviations.append(covering_commutation_deviation_oracle(g, theta, p))
    return deviations


def criterion_6_oracle(seed):
    rng = spawn_rng(seed, 6)
    deviations = []
    for i in range(100):
        n, m = _DIM_CASES[i % 4]
        l = n + m
        g = draw_connection_oracle(_frame(l, n), rng).connection()
        theta = draw_connection_oracle(_theta_frame(n), rng).connection()
        p = random_secjet1(n, l, rng)
        dx = rng.uniform(-1, 1, n)
        du = rng.uniform(-1, 1, l)
        dd = rng.uniform(-1, 1, (l, n))
        deviations.append(quotient_diagram_deviation_oracle(g, theta, p, dx, du, dd))
    return deviations


def criterion_7_oracle(seed):
    rng = spawn_rng(seed, 7)
    deviations = []
    for i in range(20):
        n, m = _DIM_CASES[i % 4]
        g = draw_connection_oracle(_frame(n + m, n), rng).connection()
        aff = random_affine(n, rng)
        report = affine_symmetry_check_oracle(g, Connection.flat(n), aff, samples=50, seed=seed + i)
        deviations.append(report.worst_residual)
    g = draw_connection_oracle(_frame(3, 1), rng).connection()
    orbit = orbit_quotient_check(g, 1, samples=25, seed=seed)
    return deviations + [orbit.wellposed_deviation, orbit.preimage_deviation, orbit.factoring_deviation]


def criterion_9_oracle(seed):
    g = sphere_chart_connection()
    jets = integrate_geodesic(g, Connection.flat(1), [0.0, 0.0], [0.8, 0.6], 1e-3, 1000)

    def speed(t):
        u = np.asarray(t.u)
        v = t.first_matrix()[:, 0]
        return 4.0 / (1.0 + u @ u) ** 2 * (v @ v)

    speeds = np.array([speed(t) for t in jets])
    drift = float(np.abs(speeds - speeds[0]).max())
    return [drift, worst(residual2_oracle(g, cover2_oracle(t)).max_abs() for t in jets)]
