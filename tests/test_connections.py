import json
from fractions import Fraction

import numpy as np
import pytest

from jetgeo import expr
from jetgeo.connections import (
    Connection,
    connection_from_dict,
    grass_arrays,
    grass_invariants,
    grass_shift,
    invariants_match,
    pi_array,
    pi_deviation,
    projective_shift,
    thomas_pi,
)
from jetgeo.errors import (
    BadSplitError,
    DimensionMismatchError,
    DomainError,
    FrameMismatchError,
    InconsistentPerturbationError,
    SpecLoadError,
)
from jetgeo.expr import Const, CoordinateFrame
from jetgeo.sampling import spawn_rng

from conftest import (
    connection_to_dict,
    deviation_at_random_points,
    random_connection,
    random_expressions,
    sphere_chart,
    sphere_spec,
)


def frame(l, n=1):
    return CoordinateFrame(tuple(f"u{i}" for i in range(1, l + 1)), n)


def connection_deviation(g1, g2, rng, points=10):
    worst = 0.0
    for _ in range(points):
        p = rng.uniform(-1, 1, g1.dim)
        worst = max(worst, float(np.abs(g1.christoffel_at(p) - g2.christoffel_at(p)).max()))
    return worst


# ---------------------------------------------------------------------------
# projective shift


def test_shift_of_zero_connection_by_unit_phi():
    f = frame(3)
    phi = [Const(Fraction(1)), Const(Fraction(0)), Const(Fraction(0))]
    shifted = projective_shift(Connection.zero(f), phi)
    p = [0.3, -0.4, 0.9]
    table = shifted.christoffel_at(p)
    expected = np.zeros((3, 3, 3))
    expected[0, 0, 0] = -2.0
    for c in (1, 2):
        expected[0, c, c] = -1.0
        expected[c, c, 0] = -1.0
    assert np.array_equal(table, expected)


def test_shift_by_zero_is_identity():
    f = frame(2)
    rng = spawn_rng(1)
    g = random_connection(f, rng)
    shifted = projective_shift(g, [Const(Fraction(0))] * 2)
    assert shifted.christoffel == g.christoffel


def test_shift_and_unshift_restore_connection():
    f = frame(3)
    rng = spawn_rng(2)
    g = random_connection(f, rng)
    phi = random_expressions(f.names, rng, 3)
    back = projective_shift(projective_shift(g, phi), [expr.negate(p) for p in phi])
    assert connection_deviation(g, back, rng) <= 1e-12


def test_shift_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        projective_shift(Connection.zero(frame(2)), [Const(Fraction(1))])


# ---------------------------------------------------------------------------
# Thomas invariants


def test_thomas_pi_of_zero_connection():
    assert thomas_pi(Connection.zero(frame(3))).pi == {}


def test_thomas_pi_vanishes_on_shifted_zero():
    # Hand algebra: the shifted zero connection has trace -(l+1)Φ_A, which
    # makes the trace correction cancel every component identically.
    f = frame(3)
    rng = spawn_rng(3)
    phi = random_expressions(f.names, rng, 3)
    shifted = projective_shift(Connection.zero(f), phi)
    l = f.dim
    for a in range(1, l + 1):
        trace = expr.simplify(expr.Add(tuple(shifted.gamma(a, c, c) for c in range(1, l + 1))))
        want = expr.simplify(Const(Fraction(-(l + 1))) * phi[a - 1])
        dev = deviation_at_random_points(trace, want, f.names, rng, points=8)
        assert dev <= 1e-12
    for _ in range(10):
        assert np.abs(pi_array(shifted.christoffel_at(rng.uniform(-1, 1, l)))).max() <= 1e-12


def test_thomas_pi_invariant_under_shift():
    f = frame(3)
    rng = spawn_rng(4)
    worst = 0.0
    for _ in range(10):
        g = random_connection(f, rng)
        shifted = projective_shift(g, random_expressions(f.names, rng, 3))
        for _ in range(20):
            p = rng.uniform(-1, 1, 3)
            deviation = np.abs(pi_array(g.christoffel_at(p)) - pi_array(shifted.christoffel_at(p))).max()
            worst = max(worst, float(deviation))
    assert worst <= 1e-10


def test_thomas_pi_trace_free():
    f = frame(4, n=2)
    rng = spawn_rng(5)
    g = random_connection(f, rng)
    for _ in range(10):
        pi = pi_array(g.christoffel_at(rng.uniform(-1, 1, 4)))
        assert np.abs(np.einsum("aff->a", pi)).max() <= 1e-10


# ---------------------------------------------------------------------------
# Grassmannian invariants


def test_grass_invariants_of_zero_connection():
    inv = grass_invariants(Connection.zero(frame(3, 1)), 1)
    for family in (inv.order0, inv.order1, inv.order2, inv.order3):
        assert all(expr.is_zero(e) for e in family.values())


def test_grass_invariants_fibre_block_passthrough():
    f = frame(3)
    e = expr.parse("u1 + u2^2", f.names)
    g = Connection.from_entries(f, {(2, 3, 1): e})  # only Γ_j{}^β{}_i type entry
    inv = grass_invariants(g, 1)
    assert all(expr.is_zero(v) for v in inv.order0.values())
    assert inv.order3[(2, 1, 3)] == e
    assert inv.order3[(3, 1, 2)] == e


def test_grass_invariants_bad_split():
    with pytest.raises(BadSplitError):
        grass_invariants(Connection.zero(frame(3)), 3)


def test_order1_family_symmetric_in_base_pair():
    f = frame(4, 2)
    rng = spawn_rng(6)
    g = random_connection(f, rng)
    order1 = grass_arrays(g.christoffel_at(rng.uniform(-1, 1, 4)), 2)[1]
    assert np.abs(order1 - order1.transpose(4, 1, 2, 3, 0)).max() <= 1e-12


def _evaluated(table, point, names):
    env = {name: float(v) for name, v in zip(names, point)}
    return {key: expr.evaluate(e, env) for key, e in table.items()}


def _laid_out(values, kinds, n, l):
    """The array holding the 1-based keyed `values`; kinds says which key
    slots run over all l indices ("a"), the n base ("b") or the l - n
    fibre ("f") indices."""
    count_and_first = {"a": (l, 1), "b": (n, 1), "f": (l - n, n + 1)}
    out = np.zeros(tuple(count_and_first[kind][0] for kind in kinds))
    for key, v in values.items():
        out[tuple(k - count_and_first[kind][1] for k, kind in zip(key, kinds))] = v
    return out


@pytest.mark.parametrize("l,n", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_array_forms_equal_the_evaluated_symbolic_tables(l, n):
    f = frame(l, n)
    rng = spawn_rng(200 + 10 * l + n)
    for _ in range(3):
        g = random_connection(f, rng)
        pi, inv = thomas_pi(g), grass_invariants(g, n)
        for _ in range(4):
            point = rng.uniform(-1, 1, l)
            G = g.christoffel_at(point)
            want = _laid_out(_evaluated(pi.pi, point, f.names), "aaa", n, l)
            assert np.abs(pi_array(G) - want).max() <= 1e-14
            order0, order1, raw2, order3 = (_evaluated(family, point, f.names) for family in
                                            (inv.order0, inv.order1, inv.order2, inv.order3))
            order2 = {(j, k, i, al, be, lam, xi): v + raw2[(i, k, j, be, al, lam, xi)]
                      for (j, k, i, al, be, lam, xi), v in raw2.items()}
            for array, values, kinds in zip(grass_arrays(G, n), (order0, order1, order2, order3),
                                            ("bfb", "bffbb", "fffbbbb", "fbf")):
                want = _laid_out(values, kinds, n, l)
                assert array.shape == want.shape and len(values) == want.size
                assert np.abs(array - want).max() <= 1e-14


# ---------------------------------------------------------------------------
# admissible shifts


@pytest.mark.parametrize("l,n", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_grass_shift_preserves_invariants(l, n):
    f = frame(l, n)
    rng = spawn_rng(100 + l * 10 + n)
    g = random_connection(f, rng)
    psi = random_expressions(f.names, rng, n)
    chi = random_expressions(f.names, rng, l - n) if n == 1 else None
    shifted = grass_shift(g, n, psi, chi)
    ok, dev = invariants_match(g, shifted, n, rng)
    assert ok, dev


def test_grass_shift_zero_perturbation_is_identity():
    f = frame(3)
    rng = spawn_rng(7)
    g = random_connection(f, rng)
    shifted = grass_shift(g, 1, [expr.ZERO], [expr.ZERO, expr.ZERO])
    assert shifted.christoffel == g.christoffel


def test_grass_shift_n1_coincides_with_projective_shift():
    rng = spawn_rng(8)
    for l in (3, 2, 4, 5):
        f = frame(l)
        g = random_connection(f, rng)
        phi = random_expressions(f.names, rng, l)
        via_grass = grass_shift(g, 1, [phi[0]], phi[1:])
        via_proj = projective_shift(g, phi)
        assert list(via_grass.christoffel.items()) == list(via_proj.christoffel.items())


def test_projective_shift_of_a_line():
    # grass_shift has no split for l = 1; projective_shift shifts the one entry
    f = frame(1)
    shifted = projective_shift(Connection.zero(f), [expr.parse("u1", f.names)])
    assert shifted.christoffel == {(1, 1, 1): expr.parse("-2*u1", f.names)}


def test_grass_shift_rejects_fibre_functions_for_n2():
    f = frame(4, 2)
    g = Connection.zero(f)
    with pytest.raises(InconsistentPerturbationError):
        grass_shift(g, 2, [expr.ZERO, expr.ZERO], [expr.ONE, expr.ONE])


def test_inadmissible_perturbation_changes_invariants():
    f = frame(3)
    rng = spawn_rng(9)
    g = random_connection(f, rng)
    tweaked = Connection.from_entries(
        f, {**dict(g.christoffel), (1, 1, 2): g.gamma(1, 2, 1) + Const(Fraction(1))}
    )
    ok, dev = invariants_match(g, tweaked, 1, rng)
    assert not ok and dev > 1e-3


def _comparisons(g1, g2):
    return {"thomas": lambda rng: pi_deviation(g1, g2, rng),
            "grassmann": lambda rng: invariants_match(g1, g2, 1, rng)[1]}


@pytest.mark.parametrize("family", ["thomas", "grassmann"])
def test_comparisons_redraw_where_gamma_fails(family):
    # sqrt(u1) fails wherever u1 < 0: each comparison redraws those points
    # and stops at the twelfth point with u1 >= 0
    f = frame(2)
    g = Connection.from_entries(f, {(1, 1, 2): expr.parse("sqrt(u1)", f.names)})
    shifted = projective_shift(g, [expr.parse("u2^2", f.names), expr.parse("u1", f.names)])
    rng, replay = spawn_rng(11), spawn_rng(11)
    assert _comparisons(g, shifted)[family](rng) <= 1e-12
    regular = drawn = 0
    while regular < 12:
        drawn += 1
        regular += int(replay.uniform(-1.0, 1.0, 2)[0] >= 0)
    assert drawn > 12
    assert rng.uniform() == replay.uniform()


@pytest.mark.parametrize("family", ["thomas", "grassmann"])
def test_comparisons_redraw_a_non_finite_deviation(family, monkeypatch):
    # the first point of the first batch reads nan: it is redrawn by a second
    # batch of one point, for each connection
    f = frame(3)
    g = random_connection(f, spawn_rng(12))
    evaluate, calls = Connection.christoffel_many, []

    def nan_on_first_call(self, points):
        calls.append(len(points))
        arrays, failures = evaluate(self, points)
        if len(calls) == 1:
            arrays[0] = np.nan
        return arrays, failures

    monkeypatch.setattr(Connection, "christoffel_many", nan_on_first_call)
    rng, replay = spawn_rng(13), spawn_rng(13)
    assert _comparisons(g, g)[family](rng) == 0.0
    assert calls == [12, 12, 1, 1]
    for _ in range(13):
        replay.uniform(-1.0, 1.0, 3)
    assert rng.uniform() == replay.uniform()


def test_comparisons_give_up_where_every_deviation_is_nan(monkeypatch):
    g = random_connection(frame(3), spawn_rng(14))
    monkeypatch.setattr(Connection, "christoffel_many",
                        lambda self, points: (np.full((len(points), 3, 3, 3), np.nan), {}))
    for compare in _comparisons(g, g).values():
        with pytest.raises(DomainError, match="could not sample"):
            compare(spawn_rng(15))


def test_comparisons_reject_different_frames():
    # the one frame check of two numeric connections, as in extension_deviation
    with pytest.raises(FrameMismatchError, match="^connections live on different frames$"):
        pi_deviation(Connection.zero(frame(2)), Connection.zero(frame(3)), spawn_rng(16))
    with pytest.raises(BadSplitError):
        invariants_match(Connection.zero(frame(3)), Connection.zero(frame(3)), 3, spawn_rng(16))


# ---------------------------------------------------------------------------
# JSON round trip


def test_connection_json_round_trip():
    f = frame(2)
    g = Connection.from_entries(f, {(1, 2, 1): expr.parse("u1*u2", f.names)})
    data = connection_to_dict(g)
    back = connection_from_dict(json.loads(json.dumps(data)))
    assert back.christoffel == g.christoffel
    assert back.frame == g.frame


def test_connection_json_conflicting_symmetric_entries():
    data = {
        "coords": ["u1", "u2"],
        "n": 1,
        "christoffel": [
            {"lower": [1, 2], "upper": 1, "expr": "u1"},
            {"lower": [2, 1], "upper": 1, "expr": "u2"},
        ],
    }
    with pytest.raises(SpecLoadError):
        connection_from_dict(data)


def test_spec_parses_and_checks_each_distinct_entry_text_once(monkeypatch):
    """The S^5 spec lists 45 entries over 10 distinct texts: the loader
    parses each text once, and `Connection` runs `symbols_of` and `is_zero`
    once per shared tree; the entries equal a parse of each entry alone."""
    spec = sphere_spec(5)
    texts = [item["expr"] for item in spec["christoffel"]]
    assert len(texts) == 45 and len(set(texts)) == 10
    calls = {"parse": [], "symbols_of": [], "is_zero": []}
    for name, log in calls.items():
        original = getattr(expr, name)
        monkeypatch.setattr(expr, name, lambda *args, log=log, original=original: log.append(args[0])
                            or original(*args))
    g = connection_from_dict(spec)
    monkeypatch.undo()
    assert sorted(calls["parse"]) == sorted(set(texts))
    assert len(calls["symbols_of"]) == len(calls["is_zero"]) == 10
    assert g == sphere_chart(5) and list(g.christoffel) == list(sphere_chart(5).christoffel)
    for item in spec["christoffel"]:
        a, b = item["lower"]
        assert g.gamma(a, item["upper"], b) == expr.parse(item["expr"], g.frame)


def test_connection_rejects_non_frame_symbols():
    f = frame(2)
    foreign = expr.parse("w + u1", ("w", "u1"))
    with pytest.raises(SpecLoadError):
        Connection.from_entries(f, {(1, 1, 1): foreign})


def test_connection_json_matching_symmetric_entries_ok():
    data = {
        "coords": ["u1", "u2"],
        "n": 1,
        "christoffel": [
            {"lower": [1, 2], "upper": 1, "expr": "u1"},
            {"lower": [2, 1], "upper": 1, "expr": "u1"},
        ],
    }
    g = connection_from_dict(data)
    assert g.gamma(2, 1, 1) == expr.Sym("u1")
