import numpy as np
import pytest

from jetgeo import expr, symmetry
from jetgeo.connections import Connection
from jetgeo.errors import BadSplitError, DimensionMismatchError
from jetgeo.expr import CoordinateFrame, Sym
from jetgeo.jets import AffineMap
from jetgeo.sampling import random_connection, spawn_rng
from jetgeo.symmetry import (
    JetField,
    JetMap,
    affine_symmetry_check,
    distribution_generator_expressions,
    field_preserves_distribution,
    jetmap_from_dict,
    orbit_quotient_check,
    preserves_contact,
    preserves_distribution,
    prolong_point_field,
    prolong_point_map,
    SymmetryReport,
    reparam_symmetry_check,
    subjet1_chart,
)

E2 = CoordinateFrame(("u1", "u2"), 1)
E3 = CoordinateFrame(("u1", "u2", "u3"), 1)
X1 = CoordinateFrame(("x1",), 1)


def flat(frame):
    return Connection.zero(frame)


def identity_map(frame, n):
    chart = subjet1_chart(frame, n)
    return JetMap("subjet", n, chart, tuple(Sym(name) for name in chart))


# ---------------------------------------------------------------------------
# finite maps


def test_identity_map_preserves_distribution():
    rng = spawn_rng(60)
    g = random_connection(E3, rng)
    report = preserves_distribution(identity_map(E3, 1), g, 1, samples=10, seed=1)
    assert report.passed
    assert report.worst_residual <= 1e-12


def test_prolonged_affine_maps_preserve_flat_distribution():
    rng = spawn_rng(61)
    for _ in range(5):
        a = rng.uniform(-1, 1, (2, 2)) + 2.0 * np.eye(2)
        b = rng.uniform(-1, 1, 2)
        comps = tuple(
            expr.simplify(
                expr.Const(_fr(a[r, 0])) * Sym("u1")
                + expr.Const(_fr(a[r, 1])) * Sym("u2")
                + expr.Const(_fr(b[r]))
            )
            for r in range(2)
        )
        jmap = prolong_point_map(comps, E2, 1)
        report = preserves_distribution(jmap, flat(E2), 1, samples=15, seed=2)
        assert report.passed, report


def _fr(x):
    from fractions import Fraction

    return Fraction(x).limit_denominator(10**9)


@pytest.mark.parametrize("fibre", ["u2 + u1^2", "u2 + sin(u1)", "u2*exp(u1)"])
def test_prolonged_nonaffine_maps_bend_lines(fibre):
    comps = (expr.parse("u1", E2), expr.parse(fibre, E2))
    jmap = prolong_point_map(comps, E2, 1)
    report = preserves_distribution(jmap, flat(E2), 1, samples=15, seed=3)
    assert not report.passed
    assert report.worst_residual > 1e-3


def test_prolonged_point_maps_preserve_contact():
    comps = (expr.parse("u1", E2), expr.parse("u2 + u1^2", E2))
    jmap = prolong_point_map(comps, E2, 1)
    report = preserves_contact(jmap, samples=10, seed=4)
    assert report.passed  # contact holds by construction even off symmetry


def test_raw_fibre_shear_breaks_contact():
    chart = subjet1_chart(E2, 1)
    bad = JetMap("subjet", 1, chart, (Sym("u1"), Sym("u2") + Sym("u2_1"), Sym("u2_1")))
    report = preserves_contact(bad, samples=10, seed=5)
    assert not report.passed


def test_map_chart_must_match_connection_dimensions():
    jmap = identity_map(E2, 1)
    rng = spawn_rng(68)
    with pytest.raises(DimensionMismatchError):
        preserves_distribution(jmap, random_connection(E3, rng), 1, samples=2)


def test_secjet_identity_map_preserves_distribution():
    from jetgeo.symmetry import secjet1_chart

    chart = secjet1_chart(X1, E2)
    jmap = JetMap("secjet", 1, chart, tuple(Sym(n) for n in chart))
    rng = spawn_rng(62)
    g = random_connection(E2, rng)
    theta = Connection.zero(X1)
    report = preserves_distribution(jmap, g, 1, samples=8, seed=6, theta=theta)
    assert report.passed


# ---------------------------------------------------------------------------
# vector fields


def test_translation_field_preserves_flat_distribution():
    chart = subjet1_chart(E2, 1)
    comps = tuple(expr.ONE if name == "u1" else expr.ZERO for name in chart)
    f = JetField("subjet", 1, chart, comps)
    report = field_preserves_distribution(f, flat(E2), 1, samples=10, seed=7)
    assert report.passed and report.worst_residual <= 1e-12


def test_prolonged_euler_field_preserves_flat_distribution():
    comps = (Sym("u1"), Sym("u2"))
    f = prolong_point_field(comps, E2, 1)
    # scaling fixes first-derivative coordinates, so the lift is horizontal
    assert expr.is_zero(f.components[2])
    report = field_preserves_distribution(f, flat(E2), 1, samples=10, seed=8)
    assert report.passed, report


def test_vertical_shift_field_fails():
    chart = subjet1_chart(E2, 1)
    comps = tuple(expr.ONE if name == "u2_1" else expr.ZERO for name in chart)
    f = JetField("subjet", 1, chart, comps)
    report = field_preserves_distribution(f, flat(E2), 1, samples=10, seed=9)
    assert not report.passed
    assert report.worst_residual > 1e-3


def test_generator_expressions_match_numeric_rows():
    from jetgeo.geodesy import distribution_fields
    from jetgeo.sampling import random_subjet1
    from jetgeo.symmetry import _subjet_point

    rng = spawn_rng(63)
    g = random_connection(E3, rng)
    gens = distribution_generator_expressions(g, 1)
    p = random_subjet1(1, 2, rng)
    rows = distribution_fields(g, p)
    sym_rows = np.array([gen.at(_subjet_point(p)) for gen in gens])
    assert np.abs(rows - sym_rows).max() <= 1e-12


# ---------------------------------------------------------------------------
# affine action


def test_affine_symmetry_identity():
    g = flat(E2)
    theta = Connection.zero(X1)
    aff = AffineMap(np.eye(1), np.zeros(1))
    assert affine_symmetry_check(g, theta, aff, samples=5, seed=10).passed


def test_affine_symmetry_scaling_translation():
    rng = spawn_rng(64)
    g = random_connection(E2, rng)
    theta = Connection.zero(X1)
    aff = AffineMap(np.array([[2.0]]), np.array([1.0]))
    report = affine_symmetry_check(g, theta, aff, samples=20, seed=11)
    assert report.passed and report.worst_residual <= 1e-10


def test_affine_symmetry_requires_flat_theta():
    theta = Connection.from_entries(X1, {(1, 1, 1): expr.ONE})
    with pytest.raises(DimensionMismatchError):
        affine_symmetry_check(flat(E2), theta, AffineMap(np.eye(1), np.zeros(1)))


@pytest.mark.parametrize("n", [2, 3])
def test_affine_symmetry_refuses_a_split_of_the_whole_frame_before_any_draw(n, monkeypatch):
    monkeypatch.setattr(symmetry, "spawn_rng", _no_draw)
    with pytest.raises(BadSplitError, match=f"split n={n} invalid for dimension 2"):
        affine_symmetry_check(flat(E2), Connection.flat(n), AffineMap(np.eye(n), np.zeros(n)))


def _no_draw(*args):
    raise AssertionError("a generator was made")


def test_cubic_reparametrization_is_not_a_symmetry():
    g = flat(E2)
    theta = Connection.zero(X1)
    phi = [expr.parse("x1^3 + x1", X1)]
    report = reparam_symmetry_check(g, theta, phi, X1, samples=15, seed=12)
    assert not report.passed
    assert report.worst_residual > 1e-3


def test_affine_reparametrization_passes_via_reparam_path():
    rng = spawn_rng(65)
    g = random_connection(E2, rng)
    theta = Connection.zero(X1)
    phi = [expr.parse("2*x1 + 1", X1)]
    report = reparam_symmetry_check(g, theta, phi, X1, samples=10, seed=13)
    assert report.passed


def test_a_non_finite_reparam_residual_is_redrawn():
    # the residual overflows to inf, or is inf - inf, at some jets: as in
    # the affine check, they are redrawn and no row keeps them
    g = Connection.from_entries(E2, {(1, 1, 1): expr.parse("10^308*u1", E2),
                                     (1, 2, 2): expr.parse("10^308*u2", E2),
                                     (2, 2, 1): expr.parse("10^308", E2)})
    report = reparam_symmetry_check(g, Connection.flat(1), [expr.parse("2*x1 + 1/2", X1)], X1, samples=5)
    assert report.skipped > 0
    assert all(np.isfinite(r) for _, r in report.rows)
    assert report.summary() == "PASS 5/5 tol=1e-10"


# ---------------------------------------------------------------------------
# orbits and factoring


def test_orbit_quotient_check_random_connection():
    rng = spawn_rng(66)
    g = random_connection(E3, rng)
    report = orbit_quotient_check(g, 1, samples=20, seed=14)
    assert report.passed, report
    assert report.wellposed_deviation <= 1e-12
    assert report.preimage_deviation <= 1e-12


def test_orbit_quotient_check_n2():
    rng = spawn_rng(67)
    f = CoordinateFrame(("u1", "u2", "u3"), 2)
    g = random_connection(f, rng)
    report = orbit_quotient_check(g, 2, samples=15, seed=15)
    assert report.passed, report


@pytest.mark.parametrize("n", [0, 3, 4])
def test_orbit_quotient_check_refuses_a_bad_split_before_any_draw(n, monkeypatch):
    monkeypatch.setattr(symmetry, "spawn_rng", _no_draw)
    with pytest.raises(BadSplitError, match=f"split n={n} invalid for dimension 3"):
        orbit_quotient_check(flat(E3), n)


def test_orbit_quotient_check_needs_a_sample():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        orbit_quotient_check(flat(E3), 1, samples=0)


# ---------------------------------------------------------------------------
# JSON


def test_jetmap_json_loading():
    data = {
        "kind": "subjet",
        "n": 1,
        "coords": ["u1", "u2"],
        "components": {"u1": "u1", "u2": "u2 + u1^2", "u2_1": "u2_1 + 2*u1"},
    }
    jmap = jetmap_from_dict(data)
    report = preserves_distribution(jmap, flat(E2), 1, samples=10, seed=16)
    assert not report.passed  # quadratic point map, as above

    with pytest.raises(Exception):
        jetmap_from_dict({**data, "components": {"u1": "u1"}})


def test_worst_residual_keeps_nan():
    report = SymmetryReport((((0.0,), 0.5), ((0.0,), float("nan")), ((0.0,), 1e-12)), 0, 1.0)
    assert np.isnan(report.worst_residual) and not report.passed
