import gc
import linecache
import pickle
import traceback
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetgeo import expr, geodesy
from jetgeo.connections import Connection, grass_arrays, pi_array, projective_shift
from jetgeo.errors import DomainError, FrameMismatchError
from jetgeo.expr import Const, CoordinateFrame, Div, Mul, Sym
from jetgeo.geodesy import (
    XiTable,
    covering_commutation_deviation,
    ddot_gamma,
    ddot_gamma_pro,
    distribution_fields,
    dot_gamma,
    dot_gamma_pro,
    dot_gamma_via_xi,
    geodesic_residuals,
    geodesic_steps,
    grass_equivalent,
    integrate_geodesic,
    param_residual2,
    quotient_diagram_deviation,
    residual2,
)
from jetgeo.jets import (
    AffineMap,
    ParamMap,
    SubJet,
    affine_act,
    cover1,
    cover2,
    inverse_top_blocks,
    jet_to_dict,
    prolong,
    tangent_cover_table,
)
from jetgeo.sampling import random_subjet1, spawn_rng

from conftest import (
    geodesic_oracle,
    geodesic_step_residual,
    geodesic_steps_oracle,
    random_connection,
    random_expressions,
    random_secjet1,
    sphere_chart,
)

X1 = CoordinateFrame(("x1",), 1)
X2 = CoordinateFrame(("x1", "x2"), 2)


def frame(l, n=1):
    return CoordinateFrame(tuple(f"u{i}" for i in range(1, l + 1)), n)


def flat(l, n=1):
    return Connection.zero(frame(l, n))


def theta_frame(n):
    return CoordinateFrame(tuple(f"x{i}" for i in range(1, n + 1)), n)


def one_entry_connection():
    """n = m = 1 with the single component Γ_1{}^2{}_1 = 1."""
    f = frame(2)
    return Connection.from_entries(f, {(1, 1, 2): expr.ONE})


# ---------------------------------------------------------------------------
# dot_gamma


def test_dot_gamma_zero_connection():
    rng = spawn_rng(30)
    p = random_subjet1(1, 2, rng)
    assert np.abs(dot_gamma(flat(3), p).table).max() == 0.0


def test_dot_gamma_single_component():
    g = one_entry_connection()
    rng = spawn_rng(31)
    for _ in range(5):
        p = random_subjet1(1, 1, rng)
        dg = dot_gamma(g, p)
        assert dg.table[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
        assert dg.table[1, 0, 0] == pytest.approx(0.0, abs=1e-15)


def test_dot_gamma_frame_mismatch():
    rng = spawn_rng(32)
    with pytest.raises(FrameMismatchError):
        dot_gamma(flat(3), random_subjet1(1, 1, rng))


def test_dot_gamma_degree_two_in_each_first_derivative_slot():
    # quadratic interpolation in any single slot reproduces a fourth value
    rng = spawn_rng(33)
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        g = random_connection(frame(n + m, n), rng)
        p = random_subjet1(n, m, rng)
        first = p.first_matrix()
        for kk in range(m):
            for lam in range(n):
                def value(t):
                    mod = first.copy()
                    mod[kk, lam] = t
                    return dot_gamma(g, SubJet(n, m, p.base, mod)).table
                v0, v1, v2 = value(0.0), value(1.0), value(2.0)
                t = 3.5
                interp = (
                    v0 * (t - 1) * (t - 2) / 2 - v1 * t * (t - 2) + v2 * t * (t - 1) / 2
                )
                assert np.abs(interp - value(t)).max() <= 1e-12


# ---------------------------------------------------------------------------
# the auxiliary-connection construction


def test_via_xi_with_zero_table_matches_closed_form():
    rng = spawn_rng(34)
    g = random_connection(frame(3, 1), rng)
    p = random_subjet1(1, 2, rng)
    direct = dot_gamma(g, p)
    via = dot_gamma_via_xi(g, XiTable(np.zeros((3, 1, 1))), p)
    assert np.abs(direct.table - via.table).max() <= 1e-14


def test_via_xi_is_independent_of_the_table():
    rng = spawn_rng(35)
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        g = random_connection(frame(n + m, n), rng)
        p = random_subjet1(n, m, rng)
        reference = dot_gamma_via_xi(g, XiTable.random(n, m, rng), p).table
        for _ in range(5):
            other = dot_gamma_via_xi(g, XiTable.random(n, m, rng), p).table
            assert np.abs(other - reference).max() <= 1e-12


def test_via_xi_zero_connection_random_table():
    rng = spawn_rng(36)
    p = random_subjet1(2, 2, rng)
    via = dot_gamma_via_xi(flat(4, 2), XiTable.random(2, 2, rng), p)
    assert np.abs(via.table).max() <= 1e-13


def test_via_xi_matches_closed_form_at_100_jets():
    rng = spawn_rng(70)
    worst = 0.0
    for i in range(100):
        n, m = ((1, 1), (1, 2), (2, 1), (2, 2))[i % 4]
        g = random_connection(frame(n + m, n), rng)
        p = random_subjet1(n, m, rng)
        via = dot_gamma_via_xi(g, XiTable.random(n, m, rng), p).table
        worst = max(worst, float(np.abs(via - dot_gamma(g, p).table).max()))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# ddot_gamma and the unparametrized residual


def test_ddot_gamma_zero_connection():
    rng = spawn_rng(38)
    p = random_subjet1(2, 1, rng)
    assert np.abs(ddot_gamma(flat(3, 2), p).second_array()).max() == 0.0


def test_ddot_gamma_single_component_value():
    g = one_entry_connection()
    p = SubJet(1, 1, (0.2, -0.7), [[0.0]])
    q = ddot_gamma(g, p)
    assert q.second_array()[0, 0, 0] == pytest.approx(-1.0, abs=1e-15)
    assert residual2(g, q).max_abs() <= 1e-15


def test_defining_identity_randomized():
    rng = spawn_rng(39)
    worst = 0.0
    for i in range(200):
        n, m = ((1, 1), (1, 2), (2, 1), (2, 2))[i % 4]
        g = random_connection(frame(n + m, n), rng)
        p = random_subjet1(n, m, rng)
        worst = max(worst, residual2(g, ddot_gamma(g, p)).max_abs())
    assert worst <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
def test_defining_identity_property(seed, dims):
    n, m = dims
    rng = spawn_rng(seed)
    g = random_connection(frame(n + m, n), rng)
    p = random_subjet1(n, m, rng)
    assert residual2(g, ddot_gamma(g, p)).max_abs() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.sampled_from([(1, 1), (1, 2), (2, 2)]))
def test_covering_commutation_property(seed, dims):
    n, m = dims
    rng = spawn_rng(seed)
    g = random_connection(frame(n + m, n), rng)
    theta = random_connection(theta_frame(n), rng)
    p = random_secjet1(n, n + m, rng)
    assert covering_commutation_deviation(g, theta, p) <= 1e-10


def test_ddot_gamma_matches_solving_the_displayed_equation():
    # independent route: the residual is linear in the second derivatives
    # with unit leading coefficient, so the extension must equal minus the
    # residual of the zero-extended jet
    rng = spawn_rng(72)
    for _ in range(30):
        n, m = ((1, 1), (1, 2), (2, 1), (2, 2))[int(rng.integers(0, 4))]
        g = random_connection(frame(n + m, n), rng)
        p = random_subjet1(n, m, rng)
        solved = -residual2(g, p.with_second(np.zeros((m, n, n)))).table
        extended = ddot_gamma(g, p).second_array()
        assert np.abs(extended - solved).max() <= 1e-13


def test_tangent_cover_table_matches_finite_differences():
    from jetgeo.jets import SecJet

    rng = spawn_rng(73)
    eps = 1e-6
    for _ in range(10):
        n, m = ((1, 1), (2, 2))[int(rng.integers(0, 2))]
        l = n + m
        t = random_secjet1(n, l, rng)
        du = rng.uniform(-1, 1, l)
        dd = rng.uniform(-1, 1, (l, n))

        def shifted(sign):
            first = t.first_matrix() + sign * eps * dd
            return cover1(SecJet(n, l, t.x, np.asarray(t.u) + sign * eps * du, first))

        plus, minus = shifted(+1), shifted(-1)
        fd_du = (np.asarray(plus.base) - np.asarray(minus.base)) / (2 * eps)
        fd_dd = (plus.first_matrix() - minus.first_matrix()) / (2 * eps)
        dd_out = tangent_cover_table(t.first, dd, inverse_top_blocks(t.first, n))
        assert np.abs(du - fd_du).max() <= 1e-8
        assert np.abs(dd_out - fd_dd).max() <= 1e-7


def test_invariant_families_are_residual_polynomial_coefficients():
    # extract the coefficients of the residual in the first-derivative
    # slots by finite differences and compare against the families
    rng = spawn_rng(74)
    n, m = 2, 2
    l = n + m
    g = random_connection(frame(l, n), rng)
    base = rng.uniform(-1, 1, l)
    order0, order1, sym2, _ = grass_arrays(g.christoffel_at(base), n)
    zero2 = np.zeros((m, n, n))

    def P(first):
        p = SubJet(n, m, base, first).with_second(zero2)
        return residual2(g, p).table

    # order 0: value at vanishing first derivatives
    p0 = P(np.zeros((m, n)))
    for lam in range(n):
        for k in range(m):
            for xi in range(n):
                assert abs(p0[k, lam, xi] - order0[lam, k, xi]) <= 1e-12

    h = 1e-4
    slots = [(i, beta) for i in range(n + 1, l + 1) for beta in range(1, n + 1)]

    def basis(i, beta, scale):
        out = np.zeros((m, n))
        out[i - n - 1, beta - 1] = scale
        return out

    # order 1: first differences at zero
    for i, beta in slots:
        d1 = (P(basis(i, beta, h)) - P(basis(i, beta, -h))) / (2 * h)
        for lam in range(1, n + 1):
            for xi in range(1, n + 1):
                for k in range(n + 1, l + 1):
                    want = order1[lam - 1, k - n - 1, i - n - 1, beta - 1, xi - 1]
                    assert abs(d1[k - n - 1, lam - 1, xi - 1] - want) <= 1e-6

    # order 2, distinct slots: mixed second differences equal the
    # symmetrized family (the coefficient of the unordered monomial)
    for a in range(len(slots)):
        for b in range(a + 1, len(slots)):
            (j, al), (i, be) = slots[a], slots[b]
            mixed = (
                P(basis(j, al, h) + basis(i, be, h))
                - P(basis(j, al, h) + basis(i, be, -h))
                - P(basis(j, al, -h) + basis(i, be, h))
                + P(basis(j, al, -h) + basis(i, be, -h))
            ) / (4 * h * h)
            for lam in range(1, n + 1):
                for xi in range(1, n + 1):
                    for k in range(n + 1, l + 1):
                        want = sym2[j - n - 1, k - n - 1, i - n - 1, al - 1, be - 1, lam - 1, xi - 1]
                        assert abs(mixed[k - n - 1, lam - 1, xi - 1] - want) <= 1e-5


def test_residual2_flat_affine_jet():
    p = SubJet(2, 1, (0.1, 0.2, 0.3), [[0.4, 0.5]]).with_second(np.zeros((1, 2, 2)))
    assert residual2(flat(3, 2), p).max_abs() == 0.0


def test_residual2_leading_term():
    c = 0.37
    p = SubJet(1, 1, (0.0, 0.0), [[0.25]]).with_second(np.full((1, 1, 1), c))
    assert residual2(flat(2), p).table[0, 0, 0] == pytest.approx(c)


def test_residual2_symmetric_in_base_pair():
    rng = spawn_rng(40)
    g = random_connection(frame(4, 2), rng)
    p = random_subjet1(2, 2, rng).with_second(rng.uniform(-1, 1, (2, 2, 2)))
    table = residual2(g, p).table
    assert np.abs(table - np.transpose(table, (0, 2, 1))).max() == 0.0


def test_residual2_on_great_circle_jets(sphere_connection):
    # integrate the parametrized geodesic, push through the covering,
    # evaluate the unparametrized equation
    theta = Connection.zero(theta_frame(1))
    jets = integrate_geodesic(sphere_connection, theta, [0.0, 0.0], [0.8, 0.6], 1e-3, 200)
    worst = max(residual2(sphere_connection, cover2(t)).max_abs() for t in jets)
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# distribution fields


def test_distribution_fields_flat_connection():
    rng = spawn_rng(41)
    p = random_subjet1(2, 2, rng)
    rows = distribution_fields(flat(4, 2), p)
    assert np.abs(rows[:, 4:]).max() == 0.0


def test_distribution_fields_base_block_is_identity():
    rng = spawn_rng(42)
    g = random_connection(frame(3, 2), rng)
    p = random_subjet1(2, 1, rng)
    rows = distribution_fields(g, p)
    assert np.array_equal(rows[:, :2], np.eye(2))


def test_distribution_fields_span_matches_extension_tangent():
    # rows must span the tangent image of the order-2 extension: stacking
    # them with the prolonged-graph tangents keeps rank n
    rng = spawn_rng(43)
    g = random_connection(frame(4, 2), rng)
    p = random_subjet1(2, 2, rng)
    rows = distribution_fields(g, p)
    q = ddot_gamma(g, p)
    second = q.second_array()
    tangents = np.zeros_like(rows)
    for lam in range(2):
        tangents[lam, lam] = 1.0
        tangents[lam, 2:4] = p.first_matrix()[:, lam]
        tangents[lam, 4:] = second[:, lam, :].reshape(-1)
    stacked = np.vstack([rows, tangents])
    assert np.linalg.matrix_rank(stacked, tol=1e-9) == 2


# ---------------------------------------------------------------------------
# the parametrized side


def test_param_residual_flat_affine_section():
    theta = Connection.zero(theta_frame(1))
    s = ParamMap(X1, (expr.parse("2*x1 + 1", X1), expr.parse("-x1", X1)))
    q = prolong(s, [0.3], 2)
    assert param_residual2(flat(2), theta, q).max_abs() == 0.0


def test_param_residual_exponential_sections():
    # Θ_1{}^1{}_1 = c, flat Γ: the residual is u'' - c u', vanishing on
    # u = a exp(c x) + b
    c = "1/2"
    theta = Connection.from_entries(theta_frame(1), {(1, 1, 1): expr.parse(c, X1)})
    s = ParamMap(X1, (expr.parse("3*exp(1/2*x1) - 1", X1), expr.parse("exp(1/2*x1)", X1)))
    for x in (-0.4, 0.0, 0.9):
        q = prolong(s, [x], 2)
        assert param_residual2(flat(2), theta, q).max_abs() <= 1e-12


def test_param_residual_of_extension_is_zero():
    rng = spawn_rng(44)
    g = random_connection(frame(3, 1), rng)
    theta = random_connection(theta_frame(2), rng)
    p = random_secjet1(2, 3, rng)
    q = ddot_gamma_pro(g, theta, p)
    assert param_residual2(g, theta, q).max_abs() <= 1e-13


def test_param_residual_symmetric_in_parameter_pair():
    rng = spawn_rng(71)
    g = random_connection(frame(3, 2), rng)
    theta = random_connection(theta_frame(2), rng)
    q = random_secjet1(2, 3, rng).with_second(rng.uniform(-1, 1, (3, 2, 2)))
    table = param_residual2(g, theta, q).table
    assert np.abs(table - np.transpose(table, (0, 2, 1))).max() == 0.0


def test_equivalence_sampling_avoids_declared_singular_points():
    f = frame(2)
    g = Connection.from_entries(
        f, {(1, 1, 2): expr.parse("1/u1", f)}, singular_points=((0.0, 0.0),)
    )
    verdict = grass_equivalent(g, g, 1, samples=10, seed=3)
    assert verdict.equivalent and verdict.max_deviation == 0.0


def test_dot_gamma_pro_flat_lift_is_translation():
    rng = spawn_rng(45)
    theta = Connection.zero(theta_frame(1))
    p = random_secjet1(1, 2, rng)
    lift = dot_gamma_pro(flat(2), theta, p)
    assert np.abs(lift.x_lift).max() == 0.0
    assert np.abs(lift.u_lift).max() == 0.0


def test_dot_gamma_pro_single_component():
    g = one_entry_connection()
    rng = spawn_rng(46)
    theta = Connection.zero(theta_frame(1))
    p = random_secjet1(1, 2, rng)
    lift = dot_gamma_pro(g, theta, p)
    d = p.first_matrix()
    assert lift.u_lift[0, 1, 0] == pytest.approx(-d[0, 0])
    assert np.abs(lift.u_lift[:, 0, :]).max() == 0.0


def test_ddot_gamma_pro_flat_is_zero():
    rng = spawn_rng(47)
    theta = Connection.zero(theta_frame(2))
    p = random_secjet1(2, 3, rng)
    assert np.abs(ddot_gamma_pro(flat(3, 2), theta, p).second_array()).max() == 0.0


def test_ddot_gamma_pro_reduces_to_geodesic_acceleration():
    rng = spawn_rng(48)
    g = random_connection(frame(2), rng)
    theta = Connection.zero(theta_frame(1))
    p = random_secjet1(1, 2, rng)
    q = ddot_gamma_pro(g, theta, p)
    G = g.christoffel_at(p.u)
    v = p.first_matrix()[:, 0]
    want = -np.einsum("ACB,A,B->C", G, v, v)
    assert np.abs(q.second_array()[:, 0, 0] - want).max() <= 1e-13


# ---------------------------------------------------------------------------
# covering identities


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_covering_commutation(n, m):
    rng = spawn_rng(49 + n * 10 + m)
    worst = 0.0
    for _ in range(50):
        g = random_connection(frame(n + m, n), rng)
        theta = random_connection(theta_frame(n), rng)
        p = random_secjet1(n, n + m, rng)
        worst = max(worst, covering_commutation_deviation(g, theta, p))
    assert worst <= 1e-10


def test_quotient_diagram_commutes():
    rng = spawn_rng(50)
    worst = 0.0
    for _ in range(100):
        n, m = ((1, 1), (2, 1), (1, 2), (2, 2))[int(rng.integers(0, 4))]
        l = n + m
        g = random_connection(frame(l, n), rng)
        theta = random_connection(theta_frame(n), rng)
        p = random_secjet1(n, l, rng)
        dx = rng.uniform(-1, 1, n)
        du = rng.uniform(-1, 1, l)
        dd = rng.uniform(-1, 1, (l, n))
        worst = max(worst, quotient_diagram_deviation(g, theta, p, dx, du, dd))
    assert worst <= 1e-10


def test_covered_distribution_stays_in_span():
    # push the parametrized graph tangents through the covering; together
    # with the unparametrized generators the rank must stay n
    rng = spawn_rng(51)
    for _ in range(20):
        n, m = ((1, 1), (2, 2))[int(rng.integers(0, 2))]
        l = n + m
        g = random_connection(frame(l, n), rng)
        theta = random_connection(theta_frame(n), rng)
        p = random_secjet1(n, l, rng)
        q2 = ddot_gamma_pro(g, theta, p)
        rows = distribution_fields(g, cover1(p))
        inv = inverse_top_blocks(p.first, n)
        pushed = np.zeros((n, rows.shape[1]))
        for lam in range(n):
            # the pushforward keeps du and annihilates the parameter direction
            pushed[lam, :l] = q2.first_matrix()[:, lam]
            pushed[lam, l:] = tangent_cover_table(p.first, q2.second_array()[:, :, lam], inv).reshape(-1)
        assert np.linalg.matrix_rank(np.vstack([rows, pushed]), tol=1e-8) == n


# ---------------------------------------------------------------------------
# geodesics


def test_flat_geodesic_is_straight_line():
    theta = Connection.zero(theta_frame(1))
    jets = integrate_geodesic(flat(2), theta, [0.0, 1.0], [0.5, -1.0], 0.01, 100)
    last = jets[-1]
    assert last.x == (pytest.approx(1.0),)
    assert last.u == pytest.approx((0.5, 0.0))
    assert np.allclose(last.first_matrix()[:, 0], [0.5, -1.0])
    assert np.abs(last.second_array()).max() == 0.0


def test_sphere_geodesic_conserves_metric_speed(sphere_connection):
    theta = Connection.zero(theta_frame(1))
    jets = integrate_geodesic(sphere_connection, theta, [0.0, 0.0], [1.0, 0.0], 1e-3, 1000)

    def speed(t):
        u = np.asarray(t.u)
        v = t.first_matrix()[:, 0]
        return 4.0 / (1.0 + u @ u) ** 2 * (v @ v)

    values = np.array([speed(t) for t in jets])
    assert np.abs(values - values[0]).max() <= 1e-8


def test_sphere_geodesic_stays_on_great_circle(sphere_connection):
    # great circles through the chart origin are straight chart lines
    theta = Connection.zero(theta_frame(1))
    direction = np.array([0.8, 0.6])
    jets = integrate_geodesic(sphere_connection, theta, [0.0, 0.0], direction, 1e-3, 1000)
    for t in jets:
        u = np.asarray(t.u)
        assert abs(u[0] * direction[1] - u[1] * direction[0]) <= 1e-10


def test_geodesic_affine_reparametrization_covers_same_jets():
    rng = spawn_rng(52)
    g = random_connection(frame(2), rng, fill=0.8)
    theta = Connection.zero(theta_frame(1))
    jets = integrate_geodesic(g, theta, [0.1, -0.2], [1.0, 0.4], 0.01, 20)
    aff = AffineMap(np.array([[2.0]]), np.array([0.3]))
    for t in jets:
        a = cover1(t.truncate(1))
        b = cover1(affine_act(aff, t).truncate(1))
        assert a.base == b.base
        assert np.abs(a.first_matrix() - b.first_matrix()).max() <= 1e-12


def test_geodesic_emitted_jets_satisfy_param_residual(sphere_connection):
    theta = Connection.zero(theta_frame(1))
    jets = integrate_geodesic(sphere_connection, theta, [0.05, -0.1], [0.4, 0.2], 1e-2, 50)
    worst = max(param_residual2(sphere_connection, theta, t).max_abs() for t in jets)
    assert worst <= 1e-14


def _one_entry_theta():
    return Connection.from_entries(theta_frame(1), {(1, 1, 1): expr.parse("1/5 + x1/3", theta_frame(1))})


_CHARTS = {
    "S2": lambda: sphere_chart(2),
    "S5": lambda: sphere_chart(5),
    "polynomial": lambda: random_connection(frame(3), spawn_rng(57), fill=0.8),
}


@pytest.mark.parametrize("theta", [lambda: Connection.zero(theta_frame(1)), _one_entry_theta],
                         ids=["flat-theta", "one-entry-theta"])
@pytest.mark.parametrize("chart", sorted(_CHARTS))
def test_geodesic_kernel_matches_numpy_oracle(chart, theta):
    g, theta = _CHARTS[chart](), theta()
    rng = spawn_rng(58)
    start, velocity = rng.uniform(-0.5, 0.5, g.dim), rng.uniform(-1.0, 1.0, g.dim)
    steps = list(geodesic_steps(g, theta, start, velocity, 1e-2, 60))
    oracle = list(geodesic_oracle(g, theta, start, velocity, 1e-2, 60))
    assert len(steps) == len(oracle) == 61
    for step, (x, u, v, a) in zip(steps, oracle):
        assert step.x == x
        for got, want in ((step.u, u), (step.v, v), (step.a, a)):
            assert np.abs(np.subtract(got, want)).max() <= 1e-14 * np.abs(want).max()


def _bits(step):
    """The step's floats as bytes: x, u, v, a, θ and the table values Γ."""
    return np.array([step.x, *step.u, *step.v, *step.a, step.theta, *step.values]).tobytes()


@pytest.mark.parametrize("steps", [0, 1, 60])
@pytest.mark.parametrize("theta", [lambda: Connection.zero(theta_frame(1)), _one_entry_theta],
                         ids=["flat-theta", "one-entry-theta"])
@pytest.mark.parametrize("l", [2, 5, 6])
def test_generated_loop_matches_the_stepper_oracle_bit_for_bit(l, theta, steps):
    g, theta = sphere_chart(l), theta()
    rng = spawn_rng(60)
    start, velocity = rng.uniform(-0.5, 0.5, l), rng.uniform(-1.0, 1.0, l)
    run = list(geodesic_steps(g, theta, start, velocity, 1e-2, steps))
    oracle = list(geodesic_steps_oracle(g, theta, start, velocity, 1e-2, steps))
    assert len(run) == len(oracle) == steps + 1
    assert all(type(step) is geodesy.GeodesicStep for step in run)
    assert [_bits(step) for step in run] == [_bits(step) for step in oracle]


def test_generated_loop_and_oracle_stop_at_the_same_domain_error():
    f = frame(2)
    g = Connection.from_entries(f, {(1, 1, 1): expr.parse("-sqrt(1 - u1)", f)})
    runs, messages = [], []
    for stepper in (geodesic_steps, geodesic_steps_oracle):
        runs.append([])
        with pytest.raises(DomainError, match="sqrt of negative value") as stop:
            for step in stepper(g, _one_entry_theta(), [0.0, 0.0], [2.0, 0.0], 0.1, 20):
                runs[-1].append(_bits(step))
        messages.append(str(stop.value))
    assert len(runs[0]) > 3 and runs[0] == runs[1] and messages[0] == messages[1]


def test_an_overflowing_acceleration_raises_a_domain_error():
    """Γ_1{}^1{}_1 = Γ_1{}^1{}_2 = 10^308 are finite, but -Γ·v·v overflows
    at the start point.  With Γ_1{}^1{}_1 = -10^307 u1 the second stage of
    the first step overflows, after that step is yielded."""
    f = frame(2)
    big = expr.parse("10^308", f)
    g = Connection.from_entries(f, {(1, 1, 1): big, (1, 2, 1): big})
    with pytest.raises(DomainError, match=r"^acceleration is not finite at t = 0\.0$"):
        next(geodesic_steps(g, Connection.flat(1), [0.0, 0.0], [1.0, 1.0], 0.1, 2))
    g = Connection.from_entries(f, {(1, 1, 1): expr.parse("-10^307 * u1", f)})
    run = []
    with pytest.raises(DomainError, match=r"^acceleration is not finite at t = 0\.25$"):
        for step in geodesic_steps(g, Connection.flat(1), [1.0, 0.0], [1.0, 0.0], 0.5, 20):
            run.append(step)
    assert [step.a for step in run] == [(1e307, 0.0)]


def test_a_second_call_compiles_no_source(monkeypatch):
    """The code of the loop and of the spray is kept per source text: a
    second S^5 run, on a freshly loaded connection, compiles nothing, and
    gets a loop function of its own, bound to its own connection."""
    theta = Connection.flat(1)
    first = list(geodesic_steps(sphere_chart(5), theta, [0.1] * 5, [0.2] * 5, 0.01, 3))
    compiled = []
    monkeypatch.setattr(expr, "compile", lambda *args: compiled.append(args[1]) or compile(*args), raising=False)
    g1, g2 = sphere_chart(5), sphere_chart(5)
    run = list(geodesic_steps(g2, theta, [0.1] * 5, [0.2] * 5, 0.01, 3))
    assert compiled == [] and [_bits(step) for step in run] == [_bits(step) for step in first]
    loop1, loop2 = geodesy._rk4_loop(g1, theta), geodesy._rk4_loop(g2, theta)
    assert compiled == [] and loop1 is not loop2 and loop1.__code__ is loop2.__code__
    assert loop1.__globals__["interpreted"] == g1.table.interpreted
    assert loop2.__globals__["interpreted"] == g2.table.interpreted


def test_a_cache_hit_runs_its_own_connections_fallback():
    """Two connections of the same entries print the same loop and share its
    code, but each loop falls back to its own connection's interpreter."""
    f = frame(2)
    g1, g2 = (Connection.from_entries(f, {(1, 1, 1): expr.parse("-sqrt(1 - u1)", f)}) for _ in range(2))
    list(geodesic_steps(g1, _one_entry_theta(), [0.0, 0.0], [2.0, 0.0], 0.1, 1))
    calls = {1: 0, 2: 0}

    def counted(k, table):
        real = table.interpreted

        def interpreted(*point):
            calls[k] += 1
            return real(*point)
        return interpreted

    g1.table.interpreted, g2.table.interpreted = counted(1, g1.table), counted(2, g2.table)
    with pytest.raises(DomainError, match="sqrt of negative value"):
        list(geodesic_steps(g2, _one_entry_theta(), [0.0, 0.0], [2.0, 0.0], 0.1, 20))
    assert calls == {1: 0, 2: 1}


def test_the_generated_loop_shows_in_tracebacks():
    """The generated source is in linecache, so the traceback of the
    acceleration's DomainError shows the generated raise line."""
    f = frame(2)
    big = expr.parse("10^308", f)
    g = Connection.from_entries(f, {(1, 1, 1): big, (1, 2, 1): big})
    with pytest.raises(DomainError) as stop:
        next(geodesic_steps(g, Connection.flat(1), [0.0, 0.0], [1.0, 1.0], 0.1, 2))
    text = "".join(traceback.format_exception(stop.type, stop.value, stop.tb))
    assert "<jetgeo generated rk4 " in text
    assert "raise DomainError(f'acceleration is not finite at t = {x!r}')" in text


def test_generated_code_is_kept_per_source_in_a_bounded_cache(monkeypatch):
    """`expr._generated` keeps the code of the `_GENERATED_CODES` sources
    used last, and a source stays in linecache while the cache or a
    function made from it lives."""
    monkeypatch.setattr(expr, "_codes", {})
    sources = [f"def f():\n    return {k}\n" for k in range(expr._GENERATED_CODES + 1)]
    first = expr._generated(sources[0], "f", {})
    filename = first.__code__.co_filename
    assert linecache.getline(filename, 2) == "    return 0\n"
    for source in sources[1:]:
        assert expr._generated(source, "f", {})() == int(source.split()[-1])
    assert len(expr._codes) == expr._GENERATED_CODES and sources[0] not in expr._codes
    gc.collect()
    assert linecache.getline(filename, 2) == "    return 0\n"
    code = expr._codes[sources[1]]
    assert expr._generated(sources[1], "f", {})() == 1
    assert expr._codes[sources[1]] is code and list(expr._codes)[-1] == sources[1]
    del first
    gc.collect()
    assert filename not in linecache.cache


def test_geodesic_step_residual_is_param_residual2():
    g, theta = sphere_chart(2), _one_entry_theta()
    run = ([0.1, -0.2], [0.6, 0.3], 0.05, 10)
    for step, jet in zip(geodesic_steps(g, theta, *run), integrate_geodesic(g, theta, *run)):
        assert geodesic_step_residual(g, step).table.tobytes() == param_residual2(g, theta, jet).table.tobytes()


@pytest.mark.parametrize("theta", [lambda: Connection.zero(theta_frame(1)), _one_entry_theta],
                         ids=["flat-theta", "one-entry-theta"])
def test_a_regular_run_calls_no_table_and_no_interpreter(monkeypatch, theta):
    """At regular points each stage evaluates g and Θ inline: no table is
    compiled or called, and the interpreter is not called."""
    interpreted = []
    real = expr._interpret
    monkeypatch.setattr(expr, "_interpret", lambda *args: interpreted.append(args) or real(*args))
    monkeypatch.setattr(expr, "compile_table", None)
    monkeypatch.setattr(expr.Table, "__call__", None)
    monkeypatch.setattr(Connection, "christoffel_at", None)
    g, theta = sphere_chart(2), theta()
    assert len(list(geodesic_steps(g, theta, [0.1, -0.2], [0.6, 0.3], 0.05, 30))) == 31
    assert interpreted == []


def test_a_failing_point_calls_the_interpreter_once(monkeypatch):
    """The stage where g fails takes the interpreter once, which raises."""
    interpreted = []
    real = expr._interpret
    monkeypatch.setattr(expr, "_interpret", lambda *args: interpreted.append(args[2]) or real(*args))
    f = frame(2)
    g = Connection.from_entries(f, {(1, 1, 1): expr.parse("-sqrt(1 - u1)", f)})
    run = []
    with pytest.raises(DomainError, match="sqrt of negative value"):
        for step in geodesic_steps(g, _one_entry_theta(), [0.0, 0.0], [2.0, 0.0], 0.1, 20):
            run.append(step)
    assert len(run) > 3 and len(interpreted) == 1 and interpreted[0][0] > 1.0


@pytest.mark.parametrize("theta", ["flat", "one-entry"])
def test_a_fallback_that_returns_values_matches_the_stepper_oracle(monkeypatch, theta):
    """Where the interpreter returns values at a point where the inline body
    fails, the stage sums the spray of those values (and Θ's term) as the
    oracle does.  The interpreter here returns 1/4 for each entry where it
    would raise."""
    real = expr._interpret

    def lenient(exprs, names, point):
        try:
            return real(exprs, names, point)
        except DomainError:
            return (0.25,) * len(exprs)

    monkeypatch.setattr(expr, "_interpret", lenient)
    f = frame(2)
    g = Connection.from_entries(f, {(1, 1, 1): expr.parse("-sqrt(1 - u1)", f), (1, 2, 2): expr.parse("u1", f)})
    run, stop = _run_bits(geodesic_steps, g, _THETAS[theta](), [0.0, 0.0], [2.0, 0.5], 0.1, 20)
    assert stop is None and len(run) == 21
    assert (run, stop) == _run_bits(geodesic_steps_oracle, g, _THETAS[theta](), [0.0, 0.0], [2.0, 0.5], 0.1, 20)


def _run_bits(stepper, g, theta, start, velocity, h, steps):
    """The bits of each step a stepper yields, then the type and text of
    the exception that stops it, or None."""
    out = []
    try:
        for step in stepper(g, theta, start, velocity, h, steps):
            out.append(_bits(step))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return out, (type(exc), str(exc))
    return out, None


def _same_as_oracle(g, theta, start, velocity, h=0.05, steps=20):
    """The generated loop yields the oracle's steps and stops with its
    error.  Where an acceleration is not finite, the loop stops and the
    oracle, which does not check, runs on: there the loop's steps are the
    first of the oracle's."""
    run, stop = _run_bits(geodesic_steps, g, theta, start, velocity, h, steps)
    oracle, oracle_stop = _run_bits(geodesic_steps_oracle, g, theta, start, velocity, h, steps)
    if stop is not None and stop[1].startswith("acceleration is not finite"):
        assert run == oracle[:len(run)]
    else:
        assert (run, stop) == (oracle, oracle_stop)


_THETAS = {
    "flat": lambda: Connection.flat(1),
    "one-entry": lambda: _one_entry_theta(),
    "constant": lambda: Connection.from_entries(theta_frame(1), {(1, 1, 1): expr.parse("-3/7", theta_frame(1))}),
    "failing": lambda: Connection.from_entries(theta_frame(1),
                                               {(1, 1, 1): expr.parse("sqrt(1/2 - x1)", theta_frame(1))}),
    "nan-constant": lambda: Connection.from_entries(
        theta_frame(1), {(1, 1, 1): Mul((Const(Fraction(10) ** 400), Sym("x1")))}),
}


@pytest.mark.parametrize("theta", sorted(_THETAS))
def test_edge_connections_match_the_stepper_oracle_bit_for_bit(theta):
    """An empty g, a g whose plan has a NaN constant, g and Θ with constant
    (literal) outputs, and a Θ that fails or has a NaN constant: the
    generated loop yields the oracle's steps and stops with its error."""
    f = frame(3)
    theta = _THETAS[theta]()
    connections = [
        Connection.zero(f),
        Connection.from_entries(f, {(1, 1, 1): Mul((Const(Fraction(10) ** 400), Sym("u1"))),
                                    (1, 2, 3): expr.parse("u1*u2", f)}),
        Connection.from_entries(f, {(1, 1, 1): expr.parse("2/3", f), (2, 3, 1): expr.parse("-1/7", f),
                                    (1, 3, 3): expr.parse("u2 - 5/4", f), (3, 3, 2): expr.parse("10^-300", f)}),
    ]
    for g in connections:
        _same_as_oracle(g, theta, [0.1, -0.2, 0.3], [0.6, 0.3, -0.4])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.integers(1, 4), st.sampled_from(["polynomial", "rational"]),
       st.sampled_from(["flat", "one-entry", "constant", "failing"]))
def test_random_connections_match_the_stepper_oracle_bit_for_bit(seed, l, kind, theta):
    """Random polynomial Christoffels, or quotients of two random polynomials,
    which fail where a denominator vanishes, with l in 1..4."""
    rng = spawn_rng(seed)
    f = frame(l)
    keys = [(a, b, c) for a in range(1, l + 1) for b in range(a, l + 1) for c in range(1, l + 1)]
    keys = [keys[i] for i in sorted(rng.choice(len(keys), size=min(len(keys), 4), replace=False).tolist())]
    entries = random_expressions(f.names, rng, 2 * len(keys))
    if kind == "rational":
        entries = [Div(p, q) for p, q in zip(entries[::2], entries[1::2])]
    g = Connection.from_entries(f, dict(zip(keys, entries)))
    _same_as_oracle(g, _THETAS[theta](), rng.uniform(-0.5, 0.5, l).tolist(), rng.uniform(-1.0, 1.0, l).tolist(),
                    h=0.1, steps=12)


@pytest.mark.parametrize("steps", [0, 60])
@pytest.mark.parametrize("theta", [lambda: Connection.zero(theta_frame(1)), _one_entry_theta],
                         ids=["flat-theta", "one-entry-theta"])
@pytest.mark.parametrize("l", [2, 5, 6])
def test_geodesic_residuals_equal_the_per_step_oracle(l, theta, steps):
    g, theta = sphere_chart(l), theta()
    rng = spawn_rng(59)
    start, velocity = rng.uniform(-0.5, 0.5, l), rng.uniform(-1.0, 1.0, l)
    run = list(geodesic_steps(g, theta, start, velocity, 1e-2, steps))
    oracle = [geodesic_step_residual(g, step).max_abs() for step in run]
    assert len(run) == steps + 1
    assert np.array(geodesic_residuals(g, run)).tobytes() == np.array(oracle).tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 61, 62])
def test_geodesic_residuals_in_chunks_equal_the_per_step_oracle(monkeypatch, chunk):
    """The column is gathered a chunk of steps at a time; every chunk size
    gives the per-step bits, in order, for each of the 61 steps."""
    monkeypatch.setattr(geodesy, "_RESIDUAL_CHUNK", chunk)
    g, theta = sphere_chart(5), _one_entry_theta()
    rng = spawn_rng(61)
    run = list(geodesic_steps(g, theta, rng.uniform(-0.5, 0.5, 5), rng.uniform(-1.0, 1.0, 5), 1e-2, 60))
    oracle = [geodesic_step_residual(g, step).max_abs() for step in run]
    assert np.array(geodesic_residuals(g, run)).tobytes() == np.array(oracle).tobytes()


def test_geodesic_residuals_of_a_trajectory_cut_by_a_domain_error():
    f = frame(2)
    g = Connection.from_entries(f, {(1, 1, 1): expr.parse("-sqrt(1 - u1)", f)})
    run = []
    with pytest.raises(DomainError, match="sqrt of negative value"):
        for step in geodesic_steps(g, _one_entry_theta(), [0.0, 0.0], [2.0, 0.0], 0.1, 20):
            run.append(step)
    oracle = [geodesic_step_residual(g, step).max_abs() for step in run]
    assert len(run) > 3 and max(oracle) > 0.0
    assert np.array(geodesic_residuals(g, run)).tobytes() == np.array(oracle).tobytes()
    assert geodesic_residuals(g, []) == []


def test_connection_pickles_after_geodesic_run():
    g, theta = sphere_chart(2), _one_entry_theta()
    before = integrate_geodesic(g, theta, [0.1, -0.2], [0.6, 0.3], 0.05, 10)
    g_copy, theta_copy = pickle.loads(pickle.dumps((g, theta)))
    after = integrate_geodesic(g_copy, theta_copy, [0.1, -0.2], [0.6, 0.3], 0.05, 10)
    assert g_copy == g and [jet_to_dict(t) for t in after] == [jet_to_dict(t) for t in before]


# ---------------------------------------------------------------------------
# equivalence


def test_grass_equivalent_reflexive():
    rng = spawn_rng(53)
    g = random_connection(frame(3, 1), rng)
    verdict = grass_equivalent(g, g, 1, samples=10, seed=5)
    assert verdict.equivalent and verdict.max_deviation == 0.0
    assert verdict.invariants_equal and verdict.invariants_deviation == 0.0


def test_grass_equivalent_projective_pair():
    rng = spawn_rng(54)
    g = random_connection(frame(3, 1), rng)
    shifted = projective_shift(g, random_expressions(g.frame.names, rng, 3))
    verdict = grass_equivalent(g, shifted, 1, samples=25, seed=6)
    assert verdict.equivalent
    assert verdict.invariants_equal
    # cross-check through the classical projective invariants
    p = rng.uniform(-1, 1, 3)
    assert np.abs(pi_array(g.christoffel_at(p)) - pi_array(shifted.christoffel_at(p))).max() <= 1e-10


def test_grass_equivalent_detects_difference():
    g0 = flat(2)
    verdict = grass_equivalent(g0, one_entry_connection(), 1, samples=10, seed=7)
    assert not verdict.equivalent
    assert verdict.max_deviation == pytest.approx(1.0, abs=1e-12)
    assert not verdict.invariants_equal


def test_grass_equivalent_out_of_regular_samples_raises_domain_error():
    f = frame(2)
    g2 = Connection.from_entries(f, {(1, 1, 2): expr.parse("sqrt(-1 - u1^2)", f)})
    with pytest.raises(DomainError, match="could not sample"):
        grass_equivalent(flat(2), g2, 1, samples=3, seed=8)
