"""Symmetry checks for the totally geodesic equations.

A map or vector field on first-order jet coordinates is a symmetry of the
equation exactly when it preserves the distinguished n-dimensional
distribution spanned by `geodesy.distribution_fields`.  This module checks
given candidates; it does not solve for the symmetry algebra.

Jet chart conventions (shared with the distribution rows):

* submanifold side: base coordinates u^1..u^l first, then derivative
  coordinates named "<fibre>_<lam>", fibre-major, base-minor;
* section side: parameter coordinates first, then u^1..u^l, then
  derivative coordinates named "<fibre>_x<lam>".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .connections import _check_split
from .errors import (
    DimensionMismatchError,
    DomainError,
    SingularJacobianError,
    SpecLoadError,
    draw_regular,
    json_int,
    json_names,
    outcome,
    require_finite,
    worst,
)
from .expr import CoordinateFrame, Sym
from .geodesy import (
    _check_theta,
    ddot_pro_second,
    distribution_rows,
    param_residual_table,
    pro_distribution_rows,
    residual_table,
)
from .jets import (
    ParamMap,
    affine_second,
    cover_first,
    cover_second,
    inverse_top_blocks,
    mirrored,
    reparam_derivatives,
    singular_blocks,
)
from .sampling import (
    WordStream,
    affine_draw,
    random_subjet1,
    secjet1_draw,
    secjet1_stream,
    spawn_rng,
    subjet1_draw,
    subjet1_stream,
)


def subjet1_chart(frame, n):
    """Coordinate names of the order-1 submanifold jet chart."""
    names = list(frame.names)
    for fibre in frame.names[n:]:
        for lam in range(1, n + 1):
            names.append(f"{fibre}_{lam}")
    return _distinct(names)


def secjet1_chart(x_frame, u_frame):
    """Coordinate names of the order-1 section jet chart."""
    names = list(x_frame.names) + list(u_frame.names)
    for fibre in u_frame.names:
        for lam in range(1, x_frame.dim + 1):
            names.append(f"{fibre}_x{lam}")
    return _distinct(names)


def _distinct(names):
    """The chart names as a tuple; SpecLoadError naming the first one that
    repeats, as "u2_1" does when a coordinate of that name sits beside u2:
    a table over the chart would read one value for both."""
    seen = set()
    for name in names:
        if name in seen:
            raise SpecLoadError(f"jet chart names the coordinate {name!r} twice; rename the coordinates that clash")
        seen.add(name)
    return tuple(names)


def _check_chart(f, g, n, theta=None):
    """DimensionMismatchError, before any draw, unless the jet map or field
    `f` is written over the jet chart that its check reads at split n: its
    kind, n and chart names must be those of `subjet1_chart(g.frame, n)`,
    or, where a parameter connection Θ is given, of the section side
    `secjet1_chart(theta.frame, g.frame)`.  A table over any other chart
    would read the check's coordinates by position.  The message names
    both charts."""
    if theta is None:
        kind, chart = "subjet", subjet1_chart(g.frame, n)
    else:
        kind, chart = "secjet", secjet1_chart(theta.frame, g.frame)
    if (f.kind, f.n, f.chart) != (kind, n, chart):
        what = "field" if isinstance(f, JetField) else "map"
        raise DimensionMismatchError(
            f"the {f.kind} {what} with n={f.n} is written over the chart ({', '.join(f.chart)}), "
            f"not over the {kind} jet chart of the connection at split n={n}, ({', '.join(chart)})"
        )


def _subjet_point(p):
    """The coordinates of an order-1 submanifold jet in chart order."""
    return (*p.base, *p.first_matrix().ravel().tolist())


@dataclass(frozen=True)
class JetMap:
    """Smooth map of order-1 jet coordinates, componentwise symbolic.

    kind is "subjet" or "secjet"; chart lists the coordinate names and
    components gives one expression per chart coordinate, in order.  The
    methods take a point in chart order and evaluate the `expr.Table`
    `table` of the components.
    """

    kind: str
    n: int
    chart: tuple
    components: tuple

    def __post_init__(self):
        if self.kind not in ("subjet", "secjet"):
            raise SpecLoadError(f"unknown jet map kind {self.kind!r}")
        if len(self.components) != len(self.chart):
            raise DimensionMismatchError("one component per chart coordinate required")
        object.__setattr__(self, "table", expr.Table(self.components, self.chart))

    def apply(self, point):
        return np.array(self.table(point))

    def jacobian_at(self, point):
        """One row per component, one column per chart coordinate."""
        return np.column_stack([self.table.derivative(name)(point) for name in self.chart])


@dataclass(frozen=True)
class JetField:
    """Vector field on order-1 jet coordinates, componentwise symbolic;
    `at` takes a point in chart order."""

    kind: str
    n: int
    chart: tuple
    components: tuple

    def __post_init__(self):
        if self.kind not in ("subjet", "secjet"):
            raise SpecLoadError(f"unknown jet field kind {self.kind!r}")
        if len(self.components) != len(self.chart):
            raise DimensionMismatchError("one component per chart coordinate required")
        object.__setattr__(self, "table", expr.Table(self.components, self.chart))

    def at(self, point):
        return np.array(self.table(point))


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of a symmetry check.  rows holds one (coordinates, residual)
    pair per sample, in sampling order; skipped counts the draws that
    failed to evaluate and were redrawn."""

    rows: tuple
    skipped: int
    tol: float

    @classmethod
    def sample(cls, draw, samples, tol, batch=False):
        """Report on `samples` regular draws, each a (coordinates,
        residual) pair; see `errors.draw_regular`."""
        rows, redrawn = draw_regular(draw, samples, batch)
        return cls(tuple(rows), redrawn, tol)

    @property
    def worst_residual(self):
        return worst(r for _, r in self.rows)

    @property
    def passed(self):
        return self.worst_residual <= self.tol

    def summary(self):
        k = sum(1 for _, r in self.rows if r <= self.tol)
        return f"{'PASS' if self.passed else 'FAIL'} {k}/{len(self.rows)} tol={self.tol:g}"


def _span_residual(generators, vector):
    """Distance of the vector from the row span, scaled decision threshold
    handled by the caller.  Least squares against the generator rows; an
    entry that is not finite, or a distance that is not (the least-squares
    fit can overflow), raises DomainError, so the sample is redrawn."""
    if not (np.isfinite(generators).all() and np.isfinite(vector).all()):
        raise DomainError("distribution generators are not finite")
    sol, *_ = np.linalg.lstsq(generators.T, vector, rcond=None)
    return require_finite(np.linalg.norm(generators.T @ sol - vector), "span residual")


def _span_scale(generators):
    return max(1.0, float(np.linalg.norm(generators)))


# ---------------------------------------------------------------------------
# finite maps


def preserves_distribution(jmap, g, n, samples=25, tol=1e-8, seed=0, theta=None):
    """Whether the map carries the distinguished distribution into itself.

    At each sampled jet the generators are pushed through the map's
    Jacobian and tested for membership in the span of the generators at
    the image jet, by least squares.  Samples where g, Θ, the map or its
    Jacobian fails to evaluate are redrawn and counted in `skipped`.

    Each batch reads its jets from a `WordStream` by `subjet1_stream` or
    `secjet1_stream`, evaluates the map and its derivative tables with one
    `Table.rows`, and the generators with `_generators_at`, at the jets and
    at the images of the jets where nothing failed before.  A sample is
    redrawn with the first error met in the order g, then Θ, at the jet,
    the map, each derivative table in chart order, g, then Θ, at the image,
    then the span residual.  Only the span residuals are per sample.
    """
    if theta is None and jmap.kind == "secjet":
        raise DimensionMismatchError("section-side distribution needs a parameter connection")
    l = g.dim
    m = l - n
    if jmap.kind == "subjet":
        _check_split(g, n)
        theta = None
    else:
        _check_theta(theta, n)
    _check_chart(jmap, g, n, theta)
    dim = len(jmap.chart)
    # the components, then the derivatives by each chart coordinate in turn:
    # a row that fails raises the error of the first tree that fails
    table = expr.Table([*jmap.components, *(e for name in jmap.chart for e in jmap.table.derivative(name).exprs)],
                       jmap.chart)
    stream = WordStream(spawn_rng(seed, 0))

    def draw(k):
        if theta is None:
            points = _subjet_points(*subjet1_stream(n, m, stream, k))
        else:
            x, u, first = secjet1_stream(n, l, stream, k)
            points = np.concatenate([x, u, first.reshape(k, l * n)], axis=1)
        rows, failed = _generators_at(g, theta, n, points)
        values, failed_map = table.rows(points)
        out = [failed.get(i) or failed_map.get(i) for i in range(k)]
        alive = [i for i, error in enumerate(out) if error is None]
        if not alive:
            return out
        images, failed_image = _generators_at(g, theta, n, values[alive, :dim])
        # jacobians[j][r, c]: the derivative of component r by chart coordinate c,
        # C-contiguous as `JetMap.jacobian_at`'s is: `@` on the strided
        # transpose rounds differently
        jacobians = np.ascontiguousarray(values[alive, dim:].reshape(-1, dim, dim).swapaxes(1, 2))

        def row(i, j):
            scale = _span_scale(images[j])
            return (tuple(points[i].tolist()),
                    max(_span_residual(images[j], jacobians[j] @ v) / scale for v in rows[i]))

        for j, i in enumerate(alive):
            out[i] = failed_image.get(j) or outcome(row, i, j)
        return out

    return SymmetryReport.sample(draw, samples, tol, batch=True)


def _subjet_points(base, first):
    """Stacked order-1 submanifold jets (k, l) and (k, m, n) as points of
    the jet chart, (k, l + m n)."""
    return np.concatenate([base, first.reshape(len(first), -1)], axis=1)


def _generators_at(g, theta, n, points):
    """The distribution generators at points of the jet chart (k, dim), by
    `distribution_rows` or, where Θ is given, by `pro_distribution_rows`
    over the section jet chart, and a dict from the index of each point
    where g, or else Θ, fails to that error."""
    l = g.dim
    if theta is None:
        G, failed = g.christoffel_many(points[:, :l])
        return distribution_rows(G, np.ascontiguousarray(points[:, l:]).reshape(-1, l - n, n)), failed
    G, failed = g.christoffel_many(points[:, n:n + l])
    Th, failed_theta = theta.christoffel_many(points[:, :n])
    D = np.ascontiguousarray(points[:, n + l:]).reshape(-1, l, n)
    return pro_distribution_rows(G, Th, D), {**failed_theta, **failed}


def preserves_contact(jmap, samples=25, tol=1e-8, seed=0):
    """Whether a submanifold-side map preserves the full contact
    distribution (the span of all prolonged-graph tangents and all
    derivative directions)."""
    if jmap.kind != "subjet":
        raise DimensionMismatchError("contact check implemented for submanifold-side maps")
    n = jmap.n
    dim = len(jmap.chart)
    l = (dim + n * n) // (n + 1)  # dim = l + (l - n) n
    m = l - n
    rng = spawn_rng(seed, 0)

    def draw():
        p = random_subjet1(n, m, rng)
        point = _subjet_point(p)
        vals = jmap.apply(point)
        jac = jmap.jacobian_at(point)
        first_image = vals[l:].reshape(m, n)
        basis = np.zeros((n + m * n, dim))
        for lam in range(n):
            basis[lam, lam] = 1.0
            basis[lam, n:l] = p.first_matrix()[:, lam]
        for idx in range(m * n):
            basis[n + idx, l + idx] = 1.0
        local = 0.0
        for vec in basis:
            pushed = jac @ vec
            # contact forms at the image: du^j - u^j_lam du^lam
            for kk in range(m):
                omega = pushed[n + kk] - first_image[kk, :] @ pushed[:n]
                local = max(local, abs(omega))
        return point, local

    return SymmetryReport.sample(draw, samples, tol)


# ---------------------------------------------------------------------------
# vector fields


def distribution_generator_expressions(g, n):
    """The distribution generators as symbolic vector fields over the
    order-1 jet chart, one tuple of components per base direction."""
    frame = g.frame
    l = frame.dim
    m = l - n
    chart = subjet1_chart(frame, n)

    def dsym(i, lam):
        return Sym(f"{frame.names[i - 1]}_{lam}")

    def dot_sym(a, k, xi):
        e = g.gamma(a, k, xi)
        for i in range(n + 1, l + 1):
            e = e + g.gamma(a, k, i) * dsym(i, xi)
        for beta in range(1, n + 1):
            inner = g.gamma(a, beta, xi)
            for i in range(n + 1, l + 1):
                inner = inner + g.gamma(a, beta, i) * dsym(i, xi)
            e = e - dsym(k, beta) * inner
        return expr.simplify(e)

    fields = []
    for lam in range(1, n + 1):
        comps = [expr.ZERO] * len(chart)
        comps[lam - 1] = expr.ONE
        for i in range(n + 1, l + 1):
            comps[i - 1] = dsym(i, lam)
        pos = l
        for k in range(n + 1, l + 1):
            for xi in range(1, n + 1):
                e = dot_sym(lam, k, xi)
                for j in range(n + 1, l + 1):
                    e = e + dsym(j, lam) * dot_sym(j, k, xi)
                comps[pos] = expr.simplify(expr.negate(e))
                pos += 1
        fields.append(JetField("subjet", n, chart, tuple(comps)))
    return fields


def commutator(f, x, chart):
    """[f, x] componentwise: f^d ∂_d x^c - x^d ∂_d f^c."""
    comps = []
    for c in range(len(chart)):
        e = expr.ZERO
        for d, name in enumerate(chart):
            e = e + f.components[d] * expr.differentiate(x.components[c], name)
            e = e - x.components[d] * expr.differentiate(f.components[c], name)
        comps.append(expr.simplify(e))
    return tuple(comps)


def field_preserves_distribution(f, g, n, samples=25, tol=1e-8, seed=0):
    """Infinitesimal version: the commutator of the field with each
    generator must stay in the distribution span at sampled jets.

    Each batch reads its jets from a `WordStream` by `subjet1_stream`,
    evaluates the generators with `_generators_at` and the brackets with one
    `Table.rows`; a sample is redrawn where g fails, else where a bracket
    fails, else where a span residual is not finite."""
    l = g.dim
    m = l - n
    _check_split(g, n)
    _check_chart(f, g, n)
    generators = distribution_generator_expressions(g, n)
    chart = f.chart
    brackets = expr.Table([c for x in generators for c in commutator(f, x, chart)], chart)
    stream = WordStream(spawn_rng(seed, 0))

    def draw(k):
        points = _subjet_points(*subjet1_stream(n, m, stream, k))
        rows, failed = _generators_at(g, None, n, points)
        values, failed_brackets = brackets.rows(points)
        values = np.ascontiguousarray(values).reshape(k, len(generators), len(chart))

        def row(i):
            scale = _span_scale(rows[i])
            return tuple(points[i].tolist()), max(_span_residual(rows[i], v) / scale for v in values[i])

        return [failed.get(i) or failed_brackets.get(i) or outcome(row, i) for i in range(k)]

    return SymmetryReport.sample(draw, samples, tol, batch=True)


# ---------------------------------------------------------------------------
# prolongation of point maps and point fields


def prolong_point_map(components, frame, n):
    """Lift a point transformation of the underlying manifold to the
    order-1 jet chart.

    Derivative coordinates transform by the graph chain rule: with
    T^A_lam = ∂F^A/∂u^lam + ∂F^A/∂u^i u^i_lam, the new derivatives are
    the fibre rows of T times the inverse of its base rows.
    """
    l = frame.dim
    if len(components) != l:
        raise DimensionMismatchError("one component per manifold coordinate required")
    m = l - n
    chart = subjet1_chart(frame, n)

    def dsym(i, lam):
        return Sym(f"{frame.names[i - 1]}_{lam}")

    total = [[None] * n for _ in range(l)]
    for a in range(l):
        for lam in range(1, n + 1):
            e = expr.differentiate(components[a], frame.names[lam - 1])
            for i in range(n + 1, l + 1):
                e = e + expr.differentiate(components[a], frame.names[i - 1]) * dsym(i, lam)
            total[a][lam - 1] = expr.simplify(e)
    base_block = [total[a] for a in range(n)]
    inv = expr.matrix_inverse(base_block)
    comps = list(components)
    for k in range(n, l):
        for mu in range(n):
            e = expr.ZERO
            for lam in range(n):
                e = e + total[k][lam] * inv[lam][mu]
            comps.append(expr.simplify(e))
    return JetMap("subjet", n, chart, tuple(comps))


def prolong_point_field(components, frame, n):
    """Lift a vector field of the underlying manifold to the order-1 jet
    chart: the derivative-slot components are D_lam(ξ^j) - u^j_mu D_lam(ξ^mu)
    with D_lam the graph total derivative."""
    l = frame.dim
    if len(components) != l:
        raise DimensionMismatchError("one component per manifold coordinate required")
    chart = subjet1_chart(frame, n)

    def dsym(i, lam):
        return Sym(f"{frame.names[i - 1]}_{lam}")

    def total_derivative(e, lam):
        out = expr.differentiate(e, frame.names[lam - 1])
        for i in range(n + 1, l + 1):
            out = out + dsym(i, lam) * expr.differentiate(e, frame.names[i - 1])
        return out

    comps = list(components)
    for j in range(n + 1, l + 1):
        for lam in range(1, n + 1):
            e = total_derivative(components[j - 1], lam)
            for mu in range(1, n + 1):
                e = e - dsym(j, mu) * total_derivative(components[mu - 1], lam)
            comps.append(expr.simplify(e))
    return JetField("subjet", n, chart, tuple(comps))


# ---------------------------------------------------------------------------
# the affine action on the parameter space


def affine_residuals(G, first, ainv):
    """The residual of `affine_symmetry_check` at each section jet: from g's
    arrays G (..., l, l, l) at its u, its first derivatives (..., l, n) and
    the inverse linear part ainv (..., n, n) of the affine map that acts on
    it, stacked along the same leading axes (or ainv alone, (n, n), for
    all), max |`param_residual_table`| of the acted order-2 extension,
    with Θ zero at every point, the acted one included."""
    n = first.shape[-1]
    Th = np.zeros(first.shape[:-2] + (n, n, n))
    # ddot_pro_second's result is symmetric bit for bit, affine_second's
    # is not: an order-2 jet stores the mirror of its upper triangle
    second = mirrored(affine_second(ddot_pro_second(G, Th, first), ainv))
    return np.abs(param_residual_table(G, Th, first @ ainv, second)).max(axis=(-3, -2, -1))


def affine_symmetry_check(g, theta, aff, samples=25, tol=1e-10, seed=0):
    """Whether the affine parameter change preserves the parametrized
    equation: points of the zero set are acted on and the residual is
    re-evaluated.  Requires the flat parameter connection, the setting in
    which the affine group acts by symmetries.

    Each batch reads its order-1 section jets from a `WordStream` by
    `secjet1_stream`, evaluates g once at all of their points, and takes
    `affine_residuals` of the stacked arrays; a jet where g fails, or whose
    residual is not finite, is redrawn."""
    if theta.christoffel:
        raise DimensionMismatchError("affine symmetry check requires the flat parameter connection")
    if theta.dim != aff.n:
        raise DimensionMismatchError("affine map and parameter connection disagree")
    n, l = aff.n, g.dim
    _check_split(g, n)
    ainv = np.linalg.inv(aff.a)
    stream = WordStream(spawn_rng(seed, 0))

    def draw(k):
        x, u, first = secjet1_stream(n, l, stream, k)
        G, failed = g.christoffel_many(u)
        residuals = affine_residuals(G, first, ainv).tolist()

        def row(i):
            return tuple(x[i].tolist()) + tuple(u[i].tolist()), require_finite(residuals[i], "residual")
        return [failed.get(i) or outcome(row, i) for i in range(k)]

    return SymmetryReport.sample(draw, samples, tol, batch=True)


def reparam_symmetry_check(g, theta, phi, x_frame, samples=25, tol=1e-10, seed=0):
    """Same check for a general (possibly non-affine) reparametrization,
    lifted honestly by the chain rule; non-affine maps pick up the
    inhomogeneous second-derivative term and fail for generic data.  phi is
    one expression per parameter over x_frame.

    Each batch reads its order-1 section jets from a `WordStream` by
    `secjet1_stream`, evaluates g once at all of their u, and φ's Jacobian,
    then its Hessian and φ itself, at all of their x by `Table.rows`; the
    lift (`jets.reparam_derivatives`, as `reparam_act` takes it) and the
    residual run on the stacked arrays.
    A jet is redrawn with the first failure that `reparam_act` after
    `ddot_gamma_pro` meets there: g fails, an entry of the Jacobian fails,
    the Jacobian fails `reparam_act`'s determinant test, an entry of the
    Hessian or of φ fails, or the residual is not finite."""
    if theta.christoffel:
        raise DimensionMismatchError("reparametrization check requires the flat parameter connection")
    phi = ParamMap(x_frame, phi)
    n, l, names = theta.dim, g.dim, x_frame.names
    if phi.l != n or phi.n != n:
        raise DimensionMismatchError("reparametrization arity does not match the jet")
    # the Jacobian's column lam * n + p is ∂_lam φ^p; rest's first n^3
    # columns are ∂_mu ∂_lam φ^p in the order (lam, mu, p), then φ: the
    # order in which `reparam_act` evaluates them
    jacobian = expr.Table([e for lam in names for e in phi.table.derivative(lam).exprs], names)
    rest = expr.Table([*(e for lam in names for mu in names for e in phi.table.derivative(lam).derivative(mu).exprs),
                       *phi.components], names)
    stream = WordStream(spawn_rng(seed, 0))

    def draw(k):
        x, u, first = secjet1_stream(n, l, stream, k)
        G, failed = g.christoffel_many(u)
        jac, failed_jac = jacobian.rows(x)
        values, failed_rest = rest.rows(x)
        # jac[i][p, lam], C-contiguous as `ParamMap.jacobian_at`'s is
        jac = np.ascontiguousarray(jac.reshape(k, n, n).swapaxes(1, 2))
        singular = singular_blocks(jac)[1]
        out = [failed.get(i) or failed_jac.get(i)
               or (SingularJacobianError("reparametrization Jacobian is singular at the jet") if singular[i] else None)
               or failed_rest.get(i) for i in range(k)]
        alive = [i for i, error in enumerate(out) if error is None]
        G, D = G[alive], first[alive]
        Th = np.zeros((len(alive), n, n, n))
        # hess[j][p, lam, mu], a view as `reparam_act`'s is: einsum sums in
        # the order of the memory layout
        hess = values[alive, :n ** 3].reshape(-1, n, n, n).transpose(0, 3, 1, 2)
        acted = reparam_derivatives(D, ddot_pro_second(G, Th, D), jac[alive], hess)
        residuals = np.abs(param_residual_table(G, Th, *acted)).max(axis=(1, 2, 3)).tolist()

        def row(i, j):
            return tuple(x[i].tolist()) + tuple(u[i].tolist()), require_finite(residuals[j], "residual")

        for j, i in enumerate(alive):
            out[i] = outcome(row, i, j)
        return out

    return SymmetryReport.sample(draw, samples, tol, batch=True)


# ---------------------------------------------------------------------------
# orbit and quotient structure


@dataclass(frozen=True)
class OrbitReport:
    wellposed_deviation: float
    preimage_deviation: float
    factoring_deviation: float
    passed: bool


def orbit_quotient_check(g, n, samples=25, seed=0, orbit_tol=1e-12, factoring_tol=1e-10):
    """Three checks on the affine orbit space of section jets:

    (a) the covering projection is constant on affine orbits;
    (b) every order-1 submanifold jet has the identity-parametrization
        preimage, mapped back by the projection;
    (c) extending a section jet on the zero set (flat parameter
        connection) and projecting lands on the zero set of the
        unparametrized equation.

    A sample reads, from one `WordStream` walk, a section jet t, ten affine
    maps, a submanifold jet p and a section jet q, and is redrawn where g
    fails at q.  Each batch projects t, its ten images and the lift of p
    with `cover_first`, and extends and projects q with `ddot_pro_second`
    and `cover_second`, over the stacked arrays, with g evaluated once at
    all of the q.  The base point of a projected jet is its u, the same on
    both sides of (a) and (b), so only first derivatives are compared.
    """
    _check_split(g, n)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    l = g.dim
    m = l - n
    stream = WordStream(spawn_rng(seed, 0))
    secjet, affine, subjet = secjet1_draw(n, l), affine_draw(n), subjet1_draw(n, m)
    layout = (secjet, *[affine] * 10, subjet, secjet)

    def projected(first):
        # never raises: t and q have |det| >= 0.3, an acted jet has
        # |det| >= 0.3 / |det a| >= 0.15 with entries below 7, and the
        # lift's top block is the identity, all far above 1e-12 max(1,
        # max |entry|)^n
        return cover_first(first, inverse_top_blocks(first, n))

    def draw(k):
        walked, jets = stream.walk([layout] * k), np.arange(k)
        t = walked.parts(0, jets)[0]
        a = affine.parts(walked.numbers, walked.offsets(np.arange(1, 11), jets[:, None]))[0]
        acted = t[:, None] @ np.linalg.inv(a)
        orbit = np.abs(projected(acted) - projected(t)[:, None]).max(axis=(1, 2, 3))
        p_first = walked.parts(11, jets)[1]
        lift = np.concatenate([np.broadcast_to(np.eye(n), (k, n, n)), p_first], axis=1)
        preimage = np.abs(projected(lift) - p_first).max(axis=(1, 2))
        first, _, u = walked.parts(12, jets)
        G, failed = g.christoffel_many(u)
        inv = inverse_top_blocks(first, n)
        # both second-derivative formulas are symmetric bit for bit
        second = cover_second(first, ddot_pro_second(G, np.zeros((k, n, n, n)), first), inv)
        factoring = np.abs(residual_table(G, cover_first(first, inv), second)).max(axis=(1, 2, 3))
        rows = zip(orbit.tolist(), preimage.tolist(), factoring.tolist())
        return [failed.get(i) or row for i, row in enumerate(rows)]

    orbit_dev, preimage_dev, factoring_dev = (
        worst(column) for column in zip(*draw_regular(draw, samples, batch=True)[0])
    )
    passed = orbit_dev <= orbit_tol and preimage_dev <= orbit_tol and factoring_dev <= factoring_tol
    return OrbitReport(orbit_dev, preimage_dev, factoring_dev, passed)


# ---------------------------------------------------------------------------
# JSON

def jetmap_from_dict(data, what=JetMap):
    """{"kind": "subjet"|"secjet", "n": 1, "coords": [base names],
    "x_coords": [... secjet only], "components": {chart name: expr}}"""
    try:
        kind = data["kind"]
        n = json_int(data["n"], "n")
        coords = json_names(data["coords"], "coords")
        comp_map = data["components"]
        if not isinstance(comp_map, dict):
            raise TypeError(f"components must be an object, got {comp_map!r}")
        if not 1 <= n <= len(coords):
            raise ValueError(f"n={n} out of range 1..{len(coords)}")
        if kind == "subjet":
            chart = subjet1_chart(CoordinateFrame(coords, n), n)
        else:
            x_coords = json_names(data.get("x_coords", [f"x{i}" for i in range(1, n + 1)]), "x_coords")
            chart = secjet1_chart(CoordinateFrame(x_coords, n), CoordinateFrame(coords, len(coords)))
    except (KeyError, TypeError, ValueError) as e:
        raise SpecLoadError(f"malformed jet map spec: {e}") from None
    missing = [name for name in chart if name not in comp_map]
    if missing:
        raise SpecLoadError(f"jet map spec missing components for {missing}")
    bad = {name: comp_map[name] for name in chart if not isinstance(comp_map[name], str)}
    if bad:
        raise SpecLoadError(f"malformed jet map spec: components must be strings, got {bad!r}")
    components = tuple(expr.parse(comp_map[name], chart) for name in chart)
    return what(kind, n, chart, components)


def jetfield_from_dict(data):
    return jetmap_from_dict(data, what=JetField)
