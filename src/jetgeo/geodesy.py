"""The equations of totally geodesic submanifolds and their structure maps.

Everything here is pointwise-numeric over the symbolic Christoffel data:

* `dot_gamma` — the connection induced on the bundle of first-order
  submanifold jets, in closed form; `dot_gamma_via_xi` builds the same
  object through the auxiliary-connection construction and is used to
  verify that the result does not depend on the auxiliary choice.
* `ddot_gamma` — the section of the 2-jet projection whose image is the
  zero set of `residual2`, the equation of unparametrized totally
  geodesic submanifolds.
* `dot_gamma_pro` / `ddot_gamma_pro` / `param_residual2` — the
  parametrized analogues over an n-dimensional parameter space.
* the covering identities tying the two pictures together, a fixed-step
  geodesic integrator for one-dimensional parameter spaces, and the
  equivalence test for connections inducing the same equation.

Index conventions match the connection module: base (Greek-role) indices
run 1..n, fibre (Latin-role) indices n+1..l, and arrays are 0-based with
the same ordering.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .connections import _check_split, check_same_frame, invariants_match
from .errors import (
    DimensionMismatchError,
    DomainError,
    FrameMismatchError,
    draw_regular,
    outcome,
    require_finite,
    worst,
)
from .expr import _PLAN_FUNCTIONS, _generated, _guard_lines, _plan_lines
from .jets import SecJet, cover_first, cover_second, inverse_top_blocks, tangent_cover_table
from .sampling import WordStream, near_singular, spawn_rng


def _check_subjet(g, p):
    if p.l != g.dim:
        raise FrameMismatchError(f"jet over {p.l} coordinates, connection over {g.dim}")
    _check_split(g, p.n)


def _check_secjet(g, theta, p):
    if p.l != g.dim:
        raise DimensionMismatchError(f"jet fibre dimension {p.l}, connection dimension {g.dim}")
    _check_theta(theta, p.n)


def _check_theta(theta, n):
    if theta.dim != n:
        raise DimensionMismatchError(f"parameter connection dimension {theta.dim}, jet parameter dimension {n}")


@dataclass(frozen=True)
class DotGamma:
    """Christoffel values of the induced jet-bundle connection at a jet.

    table[A-1][k-n-1][xi-1] holds dotΓ_A{}^k{}_xi; A runs over all
    coordinates, k over fibre indices, xi over base indices.  Components
    are polynomials of degree <= 2 in the first-derivative coordinates.
    """

    n: int
    m: int
    table: np.ndarray


@dataclass(frozen=True)
class Residual2:
    """Left side of the unparametrized equation at an order-2 jet,
    symmetric in the two base indices."""

    n: int
    m: int
    table: np.ndarray  # (m, n, n)

    def max_abs(self):
        return float(np.abs(self.table).max())


@dataclass(frozen=True)
class ParamResidual2:
    """Left side of the parametrized equation at an order-2 section jet,
    symmetric in the two parameter indices."""

    n: int
    l: int
    table: np.ndarray  # (l, n, n)

    def max_abs(self):
        return float(np.abs(self.table).max())


# ---------------------------------------------------------------------------
# the induced connection on first-order jets


def dot_gamma(g, p):
    """Induced connection at an order-1 submanifold jet, closed form:

    dotΓ_A{}^k{}_xi = Γ_A{}^k{}_xi + Γ_A{}^k{}_i u^i_xi
                      - u^k_beta (Γ_A{}^beta{}_xi + Γ_A{}^beta{}_i u^i_xi),

    Christoffels evaluated at the jet's base point.
    """
    _check_subjet(g, p)
    return DotGamma(p.n, p.m, dot_gamma_table(g.christoffel_at(p.base), p.first_matrix()))


# The array formulas behind the per-jet functions.  Each takes Christoffel
# arrays and jet arrays at one jet or stacked along the same leading axes,
# so a per-jet function and a batch of jets share one einsum per kernel.


def dot_gamma_table(G, D):
    """`dot_gamma`'s table from G (..., l, l, l) and D (..., m, n)."""
    n = D.shape[-1]
    lat = G[..., :, n:, :n] + np.einsum("...aki,...ix->...akx", G[..., :, n:, n:], D)
    grk = G[..., :, :n, :n] + np.einsum("...abi,...ix->...abx", G[..., :, :n, n:], D)
    return lat - np.einsum("...kb,...abx->...akx", D, grk)


def _raw_second(G, D):
    """-(dotΓ_lam{}^k{}_xi + u^j_lam dotΓ_j{}^k{}_xi), (..., m, n, n) indexed
    [k, lam, xi], from G and D: `ddot_second` before its symmetrization,
    and the vertical part of the distribution generators."""
    n = D.shape[-1]
    table = dot_gamma_table(G, D)
    return -(np.swapaxes(table[..., :n, :, :], -3, -2)
             + np.einsum("...jl,...jkx->...klx", D, table[..., n:, :, :]))


def ddot_second(G, D):
    """`ddot_gamma`'s second derivatives (..., m, n, n) from G and D."""
    second = _raw_second(G, D)
    return 0.5 * (second + np.swapaxes(second, -1, -2))


def ddot_pro_second(G, Th, D):
    """`ddot_gamma_pro`'s second derivatives (..., l, n, n) from G, Θ's
    array Th (..., n, n, n) and D (..., l, n)."""
    second = -np.einsum("...ACB,...Ax,...Bl->...Cxl", G, D, D) + np.einsum("...xel,...Ce->...Cxl", Th, D)
    return 0.5 * (second + np.swapaxes(second, -1, -2))


def extension_deviations(G1, G2, D):
    """max |`ddot_second`(G1, D) - `ddot_second`(G2, D)| at each jet, of two
    connections' arrays at its point: the per-jet deviation of
    `extension_deviation`."""
    return np.abs(ddot_second(G1, D) - ddot_second(G2, D)).max(axis=(-3, -2, -1))


def residual_table(G, D, u2):
    """`residual2`'s table (..., m, n, n) from G, D (..., m, n) and the
    second derivatives u2 (..., m, n, n)."""
    n = D.shape[-1]
    # P[lam][C][xi] = Γ_lam{}^C{}_xi + Γ_lam{}^C{}_i u^i_xi
    #               + Γ_j{}^C{}_xi u^j_lam + Γ_j{}^C{}_i u^j_lam u^i_xi
    base_part = G[..., :n, :, :n] + np.einsum("...lCi,...ix->...lCx", G[..., :n, :, n:], D)
    fibre_part = G[..., n:, :, :n] + np.einsum("...jCi,...ix->...jCx", G[..., n:, :, n:], D)
    P = base_part + np.einsum("...jl,...jCx->...lCx", D, fibre_part)
    F = (u2 + np.swapaxes(P[..., :, n:, :], -3, -2)
         - np.einsum("...kb,...lbx->...klx", D, P[..., :, :n, :]))
    return 0.5 * (F + np.swapaxes(F, -1, -2))


def pro_lift_tables(G, Th, D):
    """`dot_gamma_pro`'s (x_lift, u_lift), (..., n, l, n) and (..., l, l, n),
    from G, Θ's array Th (..., n, n, n) and D (..., l, n)."""
    return np.einsum("...lxe,...Ax->...lAe", Th, D), -np.einsum("...BCA,...Ax->...BCx", G, D)


def pro_distribution_rows(G, Th, D):
    """Generators of the parametrized-side distribution at order-1 section
    jets, (..., n, n + l + l n), rows over the section jet chart, from G,
    Θ's array Th (..., n, n, n) and D (..., l, n): row lam is the
    coordinate vector of ∂_{x^lam} + u^A_{x lam} ∂_{u^A} + u^A_{x xi x lam}
    ∂_{u^A_{x xi}}, with the second derivatives of `ddot_pro_second`."""
    l, n = D.shape[-2:]
    rows = np.zeros((*D.shape[:-2], n, n + l + l * n))
    rows[..., :n] = np.eye(n)
    rows[..., n:n + l] = np.swapaxes(D, -1, -2)
    rows[..., n + l:] = np.moveaxis(ddot_pro_second(G, Th, D), -1, -3).reshape(*D.shape[:-2], n, l * n)
    return rows


def param_residual_table(G, Th, D, second):
    """`param_residual2`'s table (..., l, n, n)."""
    table = (second
             + np.einsum("...ACB,...Ax,...Bl->...Cxl", G, D, D)
             - np.einsum("...xel,...Ce->...Cxl", Th, D))
    return 0.5 * (table + np.swapaxes(table, -1, -2))


@dataclass(frozen=True)
class XiTable:
    """Auxiliary connection values on the horizontal codistribution at a
    point: base[A-1][xi-1][lam-1]."""

    base: np.ndarray  # (l, n, n)

    @classmethod
    def random(cls, n, m, rng):
        return cls(rng.uniform(-1.0, 1.0, (n + m, n, n)))


def dot_gamma_via_xi(g, xi, p):
    """Induced connection computed through an auxiliary connection.

    Materializes the du^A coefficients of the product-connection symbols

        Om_A{}^C_xi{}^lam_B      = δ^C_B Ξ_A{}_xi{}^lam + δ^lam_xi Γ_A{}^C{}_B,

    contracted along the canonical horizontal inclusion of the jet, and
    projects onto the vertical quotient by subtracting the
    u^k_beta-weighted base components.  The auxiliary terms cancel in the
    projection, so the result equals `dot_gamma(g, p)` for every table.
    The vertical symbols Om^al_h{}^C_xi{}^lam_B = δ^C_B Ξ^al_h{}_xi{}^lam
    only reach the du^h_alpha coefficients, which the induced connection
    does not read.
    """
    _check_subjet(g, p)
    if xi.base.shape != (p.l, p.n, p.n):
        raise FrameMismatchError("auxiliary table shapes do not match the jet")
    return DotGamma(p.n, p.m, dot_gamma_via_xi_table(g.christoffel_at(p.base), xi.base, p.first))


def row_dot(a, b):
    """The dot products over the last axis of a and b, which broadcast,
    each summed as the 1-d `@` of its two rows sums it: a stacked `@` of
    C-contiguous (..., 1, k) and (..., k, 1) arrays, which numpy computes
    per row with the same BLAS dot.  An einsum or an elementwise sum
    rounds some rows differently.  That numpy sends both to one dot is
    its choice, not a promise: the parity was checked with numpy 2.4.6
    and its bundled OpenBLAS, the version the Python 3.11 CI job pins."""
    a, b = (np.ascontiguousarray(v) for v in np.broadcast_arrays(a, b))
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def dot_gamma_via_xi_table(G, Xi, D):
    """`dot_gamma_via_xi`'s table from G (..., l, l, l), the auxiliary
    table Xi (..., l, n, n) and D (..., m, n), over leading axes that
    broadcast.  raw[A][C][xi], the du^A coefficient of the contraction,
    is Γ_A{}^C{}_xi, plus Ξ_A{}_xi{}^C for C <= n or Ξ_A{}_xi{}^lam u^C_lam
    above, plus Γ_A{}^C{}_i u^i_xi, added in that order."""
    n = D.shape[-1]
    xi_fibre = row_dot(Xi[..., :, None, :, :], D[..., None, :, None, :])
    xi_base = np.broadcast_to(np.swapaxes(Xi, -1, -2), (*xi_fibre.shape[:-2], n, n))
    fibre_dot = row_dot(G[..., :, :, None, n:], np.swapaxes(D, -1, -2)[..., None, None, :, :])
    raw = (G[..., :n] + np.concatenate([xi_base, xi_fibre], axis=-2)) + fibre_dot
    # vertical projection: fibre slot minus u^k_beta times base slots
    return raw[..., :, n:, :] - np.einsum("...kb,...abx->...akx", D, raw[..., :, :n, :])


# ---------------------------------------------------------------------------
# the unparametrized equation


def ddot_gamma(g, p):
    """Extend an order-1 jet to the unique order-2 jet on the zero set:

    u^k_{lam xi} = -(dotΓ_lam{}^k{}_xi + u^j_lam dotΓ_j{}^k{}_xi),

    symmetrized over the base index pair.  `residual2` of the result
    vanishes identically.
    """
    _check_subjet(g, p)
    return p.with_second(ddot_second(g.christoffel_at(p.base), p.first_matrix()))


def residual2(g, q):
    """Left side of the unparametrized totally geodesic equation:

    u^k_{lam xi} + Γ_lam{}^k{}_xi + Γ_lam{}^k{}_i u^i_xi + Γ_j{}^k{}_xi u^j_lam
      + Γ_j{}^k{}_i u^j_lam u^i_xi
      - u^k_beta (Γ_lam{}^beta{}_xi + Γ_lam{}^beta{}_i u^i_xi
                  + Γ_j{}^beta{}_xi u^j_lam + Γ_j{}^beta{}_i u^j_lam u^i_xi),

    evaluated as written and averaged over the base index swap (a guard;
    the two agree for symmetric Christoffels).
    """
    _check_subjet(g, q)
    if q.r < 2:
        raise FrameMismatchError("residual needs an order-2 jet")
    return Residual2(q.n, q.m, residual_table(g.christoffel_at(q.base), q.first, q.second))


def distribution_fields(g, p):
    """Generators of the distinguished n-dimensional distribution at an
    order-1 jet, as rows over the jet-chart coordinates; see
    `distribution_rows`."""
    _check_subjet(g, p)
    return distribution_rows(g.christoffel_at(p.base), p.first)


def distribution_rows(G, D):
    """`distribution_fields`' rows (..., n, l + m n) from G (..., l, l, l)
    and D (..., m, n).

    Row lam is the coordinate vector of
    ∂_{u^lam} + u^j_lam ∂_{u^j} - (dotΓ_lam{}^k{}_xi + u^j_lam dotΓ_j{}^k{}_xi) ∂_{u^k_xi};
    columns are ordered base coordinates (l), then derivative coordinates
    (fibre-major, base-minor).
    """
    m, n = D.shape[-2:]
    rows = np.zeros((*D.shape[:-2], n, n + m + m * n))
    rows[..., :n] = np.eye(n)
    rows[..., n:n + m] = np.swapaxes(D, -1, -2)
    rows[..., n + m:] = np.swapaxes(_raw_second(G, D), -3, -2).reshape(*D.shape[:-2], n, m * n)
    return rows


# ---------------------------------------------------------------------------
# the parametrized equation


@dataclass(frozen=True)
class ProLift:
    """Coefficient table of the parametrized jet-bundle connection at an
    order-1 section jet.

    The lift of ∂_{x^lam} carries x_lift[lam][A][eta] on ∂_{u^A_{x eta}};
    the lift of ∂_{u^B} carries u_lift[B][C][xi] on ∂_{u^C_{x xi}}.
    """

    n: int
    l: int
    x_lift: np.ndarray  # (n, l, n)
    u_lift: np.ndarray  # (l, l, n)


def dot_gamma_pro(g, theta, p):
    """Parametrized jet-bundle connection at an order-1 section jet:
    x_lift[lam][A][eta] = Θ_lam{}^xi{}_eta u^A_{x xi},
    u_lift[B][C][xi] = -Γ_B{}^C{}_A u^A_{x xi}."""
    _check_secjet(g, theta, p)
    return ProLift(p.n, p.l, *pro_lift_tables(g.christoffel_at(p.u), theta.christoffel_at(p.x), p.first))


def ddot_gamma_pro(g, theta, p):
    """Extend an order-1 section jet to the unique order-2 jet on the
    zero set of the parametrized equation:

    u^C_{x xi x lam} = -Γ_A{}^C{}_B u^A_{x xi} u^B_{x lam}
                       + Θ_xi{}^eta{}_lam u^C_{x eta}."""
    _check_secjet(g, theta, p)
    return p.with_second(ddot_pro_second(g.christoffel_at(p.u), theta.christoffel_at(p.x), p.first_matrix()))


def param_residual2(g, theta, q):
    """Left side of the parametrized totally geodesic equation:

    u^C_{x xi x lam} + Γ_A{}^C{}_B u^A_{x xi} u^B_{x lam}
                     - Θ_xi{}^eta{}_lam u^C_{x eta},

    averaged over the parameter index swap as a guard.
    """
    _check_secjet(g, theta, q)
    if q.r < 2:
        raise DimensionMismatchError("residual needs an order-2 jet")
    return ParamResidual2(q.n, q.l, param_residual_table(g.christoffel_at(q.u), theta.christoffel_at(q.x),
                                                        q.first_matrix(), q.second_array()))


# ---------------------------------------------------------------------------
# the covering identities, at one jet: `cover-check` and criteria 5 and 6
# evaluate them with the array formulas below, a batch of jets at a time


def covering_commutation_deviation(g, theta, p):
    """Max-abs difference between the two routes around the covering
    square: project-then-extend versus extend-then-project, at an
    admissible order-1 section jet."""
    _check_secjet(g, theta, p)
    _check_split(g, p.n)
    return float(covering_commutation_deviations(g.christoffel_at(p.u), theta.christoffel_at(p.x), p.first))


def quotient_diagram_deviation(g, theta, p, dx, du, dd):
    """Max-abs difference between pushing the vertical projection forward
    and projecting the pushforward, for one tangent vector at an
    admissible order-1 section jet."""
    _check_secjet(g, theta, p)
    _check_split(g, p.n)
    return float(quotient_diagram_deviations(g.christoffel_at(p.u), theta.christoffel_at(p.x), p.first,
                                             *(np.asarray(v, dtype=float) for v in (dx, du, dd))))


# The array formulas of the functions above, at one jet or stacked along
# the same leading axes: Christoffel arrays G (..., l, l, l) at u and Th
# (..., n, n, n) at x, D (..., l, n) the section jet's first derivatives
# and tangent vectors (dx, du, dd) of shapes (..., n), (..., l), (..., l, n).


def vertical_dot_table(G, D, du, dd):
    """Vertical projection of tangent vectors (du, dd) at order-1
    submanifold jets with first derivatives D (..., m, n):
    out[k][xi] = dd[k][xi] + dotΓ_A{}^k{}_xi du^A, (..., m, n)."""
    return dd + np.einsum("...akx,...a->...kx", dot_gamma_table(G, D), du)


def vertical_pro_table(G, Th, D, dx, du, dd):
    """Vertical projection of tangent vectors at order-1 section jets:
    out[C][eta] = dd[C][eta] - dx^lam Θ_lam{}^xi{}_eta u^C_{x xi}
                 + du^B Γ_B{}^C{}_A u^A_{x eta}, (..., l, n)."""
    x_lift, u_lift = pro_lift_tables(G, Th, D)
    return dd - np.einsum("...l,...lCe->...Ce", dx, x_lift) - np.einsum("...B,...BCe->...Ce", du, u_lift)


def covering_commutation_deviations(G, Th, D):
    """`covering_commutation_deviation` per jet, (...): `cover2` of
    `ddot_gamma_pro` against `ddot_gamma` of `cover1`, from one inverse of
    the base-direction block and one G."""
    inv = inverse_top_blocks(D, D.shape[-1])
    first = cover_first(D, inv)
    via_param = cover_second(D, ddot_pro_second(G, Th, D), inv)
    gap = np.abs(via_param - ddot_second(G, first)).max(axis=(-3, -2, -1))
    # both routes carry these first derivatives: their difference is 0, or
    # NaN where they are not finite
    return np.maximum(gap, np.abs(first - first).max(axis=(-2, -1)))


def quotient_diagram_deviations(G, Th, D, dx, du, dd):
    """`quotient_diagram_deviation` per jet and tangent vector, (...), from
    one inverse of the base-direction block and one G."""
    inv = inverse_top_blocks(D, D.shape[-1])
    lhs = tangent_cover_table(D, vertical_pro_table(G, Th, D, dx, du, dd), inv)
    rhs = vertical_dot_table(G, cover_first(D, inv), du, tangent_cover_table(D, dd, inv))
    return np.abs(lhs - rhs).max(axis=(-2, -1))


# ---------------------------------------------------------------------------
# geodesics (one-dimensional parameter space)


class GeodesicStep(NamedTuple):
    """One point of a geodesic: parameter x, point u, velocity v and
    acceleration a, with the Christoffel data that gave a: values, the
    tuple of g's table at u (`christoffel_array(values)` is the array of
    `christoffel_at(u)`), and theta, Θ_1{}^1{}_1 at x."""

    x: float
    u: tuple
    v: tuple
    a: tuple
    values: tuple
    theta: float


# steps gathered into Christoffel arrays at a time by `geodesic_residuals`
_RESIDUAL_CHUNK = 1024


def geodesic_residuals(g, steps):
    """The max-abs `param_residual2` of each step's order-2 jet, computed
    with numpy a chunk of steps at a time:

        max over C of |a^C + Γ_A{}^C{}_B v^A v^B - Θ_1{}^1{}_1 v^C|,

    with Γ gathered from the steps' table values by `christoffel_arrays`.
    This checks the generated acceleration independently: numpy sums Γ·v·v
    here, `_spray` sums it there.  For n = 1 the swap average of
    `param_residual_table`, 0.5 * (t + t), is exactly t, so the bits are those
    of the per-step formula.  The one exception is |t| of at least half the
    largest float, where t + t overflows and the per-step formula reads inf.
    numpy's floating-point warnings are off, so an overflow shows only in
    the values.
    """
    out = []
    for i in range(0, len(steps), _RESIDUAL_CHUNK):
        chunk = steps[i:i + _RESIDUAL_CHUNK]
        G = g.christoffel_arrays([s.values for s in chunk])
        v, a = np.array([s.v for s in chunk]), np.array([s.a for s in chunk])
        theta = np.array([s.theta for s in chunk])[:, None]
        with np.errstate(all="ignore"):
            table = a + np.einsum("NACB,NA,NB->NC", G, v, v) - theta * v
        out += np.abs(table).max(axis=1).tolist()
    return out


def _spray_sums(keys, l, values, velocity):
    """The text of -Γ_A{}^C{}_B v^A v^B for each C: one product per entry
    stored under `keys`, doubled for A != B, of the texts values[i] of the
    entries and velocity[i] of v, or 0.0 where C has no entry."""
    terms = [[] for _ in range(l)]
    for i, (a, b, c) in enumerate(keys):
        terms[c - 1].append(f"{'' if a == b else '2.0 * '}{values[i]} * {velocity[a - 1]} * {velocity[b - 1]}")
    return [f"-({' + '.join(t)})" if t else "0.0" for t in terms]


def _spray(keys, l):
    """Generated ``spray(values, v0, ..., v{l-1})``, the tuple over C of
    -Γ_A{}^C{}_B v^A v^B from the values of the entries stored under
    `keys`, summed as `_spray_sums` prints it."""
    names = [f"g{i}" for i in range(len(keys))]
    velocity = [f"v{i}" for i in range(l)]
    sums = "".join(f"{t}, " for t in _spray_sums(keys, l, names, velocity))
    source = (f"def spray(values, {''.join(f'{v}, ' for v in velocity)}):\n"
              f"    [{', '.join(names)}] = values\n    return ({sums})\n")
    return _generated(source, "spray", {})


def _rk4_loop(g, theta):
    """The generated RK4 loop of g and Θ, a generator ``rk4(u, v, h, steps)``
    of `GeodesicStep`s with scalar locals.

    Each stage sets its point p0..p{l-1} (and y, its x, if Θ has entries),
    then runs g's `_BatchPlan` and Θ's as `compile_table` prints them, one
    guard over the locals of both, and the Γ·v·v sums of `_spray_sums`, as
    straight-line float code: it calls nothing.  Where the body raises or
    the guard trips, and at every point if a plan has a NaN constant, the
    stage takes g's `interpreted` at the point, Θ's at y, and the
    connection's `_spray`, so the same values, or the same first error,
    come out as from the compiled tables.  The first stage of a step alone
    builds the `values` tuple of its `GeodesicStep`.  A stage raises a
    DomainError if the acceleration is not finite.

    The code is kept per source text by `expr._generated`, so a second
    connection with the same entries compiles nothing; each call execs it
    in a namespace of its own, bound to this g and Θ."""
    l, keys, with_theta = g.dim, tuple(g.christoffel), bool(theta.christoffel)
    g_printed = _plan_lines(g.table.plan(), [f"p{j}" for j in range(l)], "t")
    theta_printed = _plan_lines(theta.table.plan(), ["y"], "q") if with_theta else ([], [], [])
    inline = g_printed is not None and theta_printed is not None
    if inline:
        (g_lines, g_outputs, g_locals), (theta_lines, theta_outputs, theta_locals) = g_printed, theta_printed
        body = [*g_lines, *theta_lines, *_guard_lines(g_locals + theta_locals)]

    def names(template):    # template over index {i}, for i in 0..l-1
        return [template.format(i=i) for i in range(l)]

    def each(template):
        return ", ".join(names(template))

    def block(statements, indent=8):
        return "".join(f"{' ' * indent}{s}\n" for s in statements)

    def stage(point, x, v, acc, first):
        # acc = the acceleration at (x, point, v); point, v, acc are templates over {i}
        values, th = ("values", "th") if first else ("w", "tw")
        velocity, accs = names(v), names(acc)
        fallback = [f"{values} = interpreted({each('p{i}')})"]
        if with_theta:
            fallback += [f"[{th}] = theta_interpreted(y)", f"[{each('s{i}')}] = spray({values}, {each(v)})",
                         *(f"{a} = s{i} + {th} * {w}" for i, (a, w) in enumerate(zip(accs, velocity)))]
        else:
            fallback.append(f"[{', '.join(accs)}] = spray({values}, {each(v)})")
        out = block(names(f"p{{i}} = {point}") + ([f"y = {x}"] if with_theta else []))
        if inline:
            terms = _spray_sums(keys, l, g_outputs, velocity)
            fast = [f"{values} = ({''.join(t + ', ' for t in g_outputs)})"] if first else []
            if with_theta:
                fast += [f"{th} = {theta_outputs[0]}"] if first else []
                terms = [f"{t} + {th if first else theta_outputs[0]} * {w}" for t, w in zip(terms, velocity)]
            fast += [f"{a} = {t}" for a, t in zip(accs, terms)]
            out += ("        try:\n" + block(body, 12) + "        except Exception:\n            finite = 1.0\n"
                    "        if finite == 0.0:\n" + block(fast, 12) + "        else:\n" + block(fallback, 12))
        else:
            out += block(fallback)
        return out + block([f"if {' * '.join(['0.0', *accs])} != 0.0:",
                            f"    raise DomainError(f'acceleration is not finite at t = {{{x}!r}}')"])

    source = (
        "def rk4(u, v, h, steps):\n"
        f"    [{each('u{i}')}] = u\n    [{each('v{i}')}] = v\n"
        "    x, half, sixth, th = 0.0, 0.5 * h, h / 6.0, 0.0\n"
        "    for step in range(steps + 1):\n"
        + stage("u{i}", "x", "v{i}", "a{i}", True)
        + f"        yield GeodesicStep(x, ({each('u{i}')},), ({each('v{i}')},), ({each('a{i}')},), values, th)\n"
        "        if step == steps:\n            return\n"
        + block(names("b{i} = v{i} + half * a{i}"))
        + stage("u{i} + half * v{i}", "x + half", "b{i}", "c{i}", False)
        + block(names("d{i} = v{i} + half * c{i}"))
        + stage("u{i} + half * b{i}", "x + half", "d{i}", "e{i}", False)
        + block(names("f{i} = v{i} + h * e{i}"))
        + stage("u{i} + h * d{i}", "x + h", "f{i}", "k{i}", False)
        + block(names("u{i} = u{i} + sixth * (v{i} + 2 * b{i} + 2 * d{i} + f{i})"))
        + block(names("v{i} = v{i} + sixth * (a{i} + 2 * c{i} + 2 * e{i} + k{i})"))
        + "        x += h\n"
    )
    return _generated(source, "rk4", {**_PLAN_FUNCTIONS, "GeodesicStep": GeodesicStep, "DomainError": DomainError,
                                      "interpreted": g.table.interpreted, "spray": _spray(keys, l),
                                      "theta_interpreted": theta.table.interpreted})


def geodesic_steps(g, theta, start, velocity, h, steps):
    """Classical fixed-step fourth-order integration of

        u'' = -Γ_A{}^C{}_B u'^A u'^B + Θ_1{}^1{}_1 u'^C

    over a one-dimensional parameter space.  Yields steps+1
    `GeodesicStep`s from the generated loop `_rk4_loop` of g and Θ, whose
    stages evaluate both tables and the spray inline.  An acceleration that
    is not finite raises a DomainError after the steps before it.
    """
    if theta.dim != 1:
        raise DimensionMismatchError("geodesic integration needs a 1-dimensional parameter space")
    if g.dim != len(start) or len(velocity) != len(start):
        raise DimensionMismatchError("start point/velocity do not match the connection dimension")
    if h <= 0 or steps < 0:
        raise DimensionMismatchError("step size must be positive and steps non-negative")
    yield from _rk4_loop(g, theta)([float(c) for c in start], [float(c) for c in velocity], h, steps)


def integrate_geodesic(g, theta, start, velocity, h, steps):
    """Trajectory of order-2 section jets (x, u, u' = v, u'' = a); see
    `geodesic_steps`."""
    return [SecJet(1, len(s.u), (s.x,), s.u, np.array(s.v)[:, None], np.array(s.a)[:, None, None])
            for s in geodesic_steps(g, theta, start, velocity, h, steps)]


# ---------------------------------------------------------------------------
# equivalence of connections


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    max_deviation: float
    invariants_equal: bool
    invariants_deviation: float
    samples: int
    tol: float


def grass_equivalent(g1, g2, n, samples=50, tol=1e-10, seed=0):
    """Whether two connections induce the same equation of unparametrized
    totally geodesic submanifolds for split n.

    Ground truth: the order-2 extensions agree within tol at `samples`
    random order-1 jets, by `extension_deviation` on stream 0 of `seed`.
    Also reports the sufficient-condition fast path through the invariant
    families, by `invariants_match` on stream 1.  A caller that reads only
    the ground truth calls `extension_deviation` alone.
    """
    max_dev = extension_deviation(g1, g2, n, samples, seed)
    inv_equal, inv_dev = invariants_match(g1, g2, n, spawn_rng(seed, 1), tol=tol)
    return EquivalenceVerdict(max_dev <= tol, max_dev, inv_equal, inv_dev, samples, tol)


def extension_deviation(g1, g2, n, samples=50, seed=0):
    """The largest max-abs difference of the order-2 extensions
    (`ddot_gamma`) of two numeric connections (see `connections`) over
    `samples` random order-1 jets, drawn from stream 0 of `seed`.

    A jet is a point (redrawn where `near_singular` finds a declared
    singular point or where g1 fails) and then its (m, n) derivative
    block, both from one generator; a redrawn point takes l numbers, a
    jet l + m n.
    A batch peeks at the numbers of k jets in a `WordStream`, walks them
    as one jet at a time would and skips what those jets read.  It
    evaluates g1 by `christoffel_many` at the k points it reads, and takes
    each run of regular ones at once if no singular point is declared; a
    point that fails, or that a redrawn point has shifted off those k, is
    checked alone, by `christoffel_many` of that point.  The deviation is
    redrawn where g2 fails or it is not finite.
    """
    check_same_frame(g1, g2)
    _check_split(g1, n)
    l = g1.dim
    m = l - n
    size = l + m * n
    stream = WordStream(spawn_rng(seed, 0))

    def draw(k):
        drawn = stream.peek(k * size)
        grid, failed = g1.christoffel_many(drawn.reshape(k, size)[:, :l])
        # with singular points declared, each point is checked alone
        plain = np.full(k, not g1.singular_points)
        plain[list(failed)] = False
        out, jets, arrays, at = [], [], [], 0
        while len(jets) < k and at + size <= len(drawn):
            r = at // size
            if at % size == 0 and plain[r]:
                stop = ~plain[r:r + k - len(jets)]
                run = int(stop.argmax()) if stop.any() else len(stop)
                out.extend(range(len(jets), len(jets) + run))
                jets.extend(range(at, at + run * size, size))
                arrays.append(grid[r:r + run])
                at += run * size
                continue
            point = drawn[at:at + l]
            error = near_singular(g1, point) if g1.singular_points else None
            if error is None and at % size == 0:
                G, error = grid[r:r + 1], failed.get(r)
            elif error is None:
                G, failures = g1.christoffel_many(point[None])
                error = failures.get(0)
            if error is None:
                out.append(len(jets))
                jets.append(at)
                arrays.append(G)
                at += size
            else:
                out.append(error)
                at += l
        stream.skip(at)
        if not jets:
            return out
        starts = np.array(jets)
        points = drawn[starts[:, None] + np.arange(l)]
        D = drawn[starts[:, None] + np.arange(l, size)].reshape(len(jets), m, n)
        G1 = np.concatenate(arrays)
        G2, failed2 = g2.christoffel_many(points)
        deviations = extension_deviations(G1, G2, D).tolist()
        return [o if isinstance(o, DomainError) else failed2.get(o)
                or outcome(require_finite, deviations[o], "second-order extension deviation")
                for o in out]

    return worst(draw_regular(draw, samples, batch=True)[0])
