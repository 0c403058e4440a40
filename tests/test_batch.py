"""The batch axis of the sampled checks: `Table.at_many` and `Table.rows`
against the per-point table, `draw_regular`'s batched form against its
per-sample form, the section jets read from a `WordStream` against
`secjet1_arrays`, the batched comparisons, affine symmetry check, orbit
check and `cover-check` against their one-sample-at-a-time oracles in
tests/conftest.py, and the array formulas of the covering projections,
the residual and the auxiliary-connection construction, and the criteria
built on them, against their per-jet and per-sample oracles there, the
coefficient form of random connections and of their shifts against the
trees, and criteria 3, 4 and 7 against their tree oracles, and the
criteria that read their draws through a `WordStream` against the same
criteria on the bare generator, whose walks draw one call at a time."""
import json
import math
import os
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetgeo import acceptance, cli, expr, geodesy, sampling, symmetry
from jetgeo.acceptance import AcceptanceConfig, _frame
from jetgeo.connections import (
    Connection,
    grass_shift,
    invariants_match,
    load_connection,
    pi_deviation,
    projective_shift,
)
from jetgeo.errors import (
    DimensionMismatchError,
    DomainError,
    FrameMismatchError,
    JetGeoError,
    SingularJacobianError,
    draw_regular,
    outcome,
    worst,
)
from jetgeo.expr import CoordinateFrame, Table, parse, to_text
from jetgeo.geodesy import (
    covering_commutation_deviation,
    covering_commutation_deviations,
    ddot_gamma_pro,
    distribution_rows,
    dot_gamma_via_xi_table,
    extension_deviation,
    grass_equivalent,
    param_residual2,
    pro_distribution_rows,
    quotient_diagram_deviation,
    quotient_diagram_deviations,
    residual2,
    residual_table,
)
from jetgeo.jets import (
    SecJet,
    SubJet,
    affine_act,
    cover1,
    cover2,
    cover_first,
    cover_second,
    inverse_top_blocks,
    tangent_cover_table,
)
from jetgeo.sampling import (
    PolynomialConnection,
    WordStream,
    _monomial_cores,
    christoffel_stack,
    connection_draw,
    polynomial_terms,
    random_subjet1,
    secjet1_stream,
    spawn_rng,
    subjet1_stream,
)
from jetgeo.symmetry import (
    JetField,
    JetMap,
    affine_residuals,
    affine_symmetry_check,
    field_preserves_distribution,
    orbit_quotient_check,
    preserves_distribution,
    prolong_point_field,
    prolong_point_map,
    reparam_symmetry_check,
    secjet1_chart,
    subjet1_chart,
)

import conftest
from conftest import (
    TREE_NAMES,
    GeneratorStream,
    HalfIgnoringStream,
    ScalarWordStream,
    affine_symmetry_check_oracle,
    cover1_oracle,
    cover_check_oracle,
    cover2_oracle,
    covering_commutation_deviation_oracle,
    distribution_fields_oracle,
    dot_gamma_via_xi_oracle,
    draw_connection,
    draw_polynomials,
    field_preserves_distribution_oracle,
    grass_equivalent_oracle,
    invariants_match_oracle,
    orbit_quotient_check_oracle,
    pi_deviation_oracle,
    preserves_distribution_oracle,
    pro_distribution_rows_oracle,
    quotient_diagram_deviation_oracle,
    random_affine,
    random_connection,
    random_expressions,
    random_secjet1,
    random_secjet2,
    reparam_symmetry_check_oracle,
    residual2_oracle,
    secjet1_arrays,
    sphere_chart,
    tangent_cover1_oracle,
    trees,
)


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def frame(l, n=1):
    return CoordinateFrame(tuple(f"u{i}" for i in range(1, l + 1)), n)


def per_point(table, point):
    """The per-point table's values at a point as bit patterns, or the type
    and text of what it raises."""
    try:
        return tuple(v.hex() for v in table(point))
    except JetGeoError as e:
        return type(e), str(e)


# ---------------------------------------------------------------------------
# Table.at_many and Table.rows


_FINITE = st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0, 1e-300, 1e300, -1e300]))


@settings(max_examples=200, deadline=None)
@given(st.lists(trees(), min_size=1, max_size=4), st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=6))
def test_at_many_is_the_per_point_table_where_ok_and_fails_where_it_raises(exprs, points):
    table = Table(exprs, TREE_NAMES)
    values, ok = table.at_many(np.array(points))
    assert values.shape == (len(points), len(exprs))
    for point, row, row_ok in zip(points, values, ok):
        expected = per_point(table, point)
        if row_ok:
            assert tuple(v.hex() for v in row.tolist()) == expected
        else:
            assert expected[0] in (DomainError, expr.MissingSymbolError)


_ANY = st.one_of(_FINITE, st.sampled_from([float("inf"), float("-inf"), float("nan")]))


@settings(max_examples=150, deadline=None)
@given(st.lists(trees(), min_size=1, max_size=3), st.lists(st.tuples(_ANY, _ANY), min_size=1, max_size=5))
def test_rows_is_the_per_point_table_at_every_point(exprs, points):
    """A row that is not ok goes through the per-point table again, so at
    non-finite coordinates too, where a node can be infinite and the value
    finite (1/u at u = inf), every row is what the table gives."""
    table = Table(exprs, TREE_NAMES)
    try:
        values, failures = table.rows(np.array(points))
    except expr.MissingSymbolError:
        assert any(per_point(table, p)[0] is expr.MissingSymbolError for p in points)
        return
    for i, point in enumerate(points):
        got = (DomainError, str(failures[i])) if i in failures else tuple(v.hex() for v in values[i].tolist())
        assert got == per_point(table, point)


def test_the_mask_marks_each_domain_error():
    table = Table([parse(text, ("u", "v")) for text in (
        "1/(u - v)", "u^(-2)", "sqrt(u)", "exp(1000*u)", "10^300*u*v*10^10", "u + v")], ("u", "v"))
    points = np.array([[0.5, 0.5], [0.0, 1.0], [-0.25, 0.5], [0.75, 0.0], [0.5, 0.6], [0.25, 1e-20]])
    values, ok = table.at_many(points)
    assert ok.tolist() == [False, False, False, False, False, True]
    _, failures = table.rows(points)
    assert {i: str(e) for i, e in failures.items()} == {
        0: "division by zero", 1: "zero base with negative exponent",
        2: "sqrt of negative value -0.25", 3: "exp overflow", 4: "intermediate value is not finite"}
    # a kept traceback would hold the frame of `rows`, and with it the batch
    assert all(e.__traceback__ is None for e in failures.values())
    assert values[5].tolist() == list(table(points[5]))


def test_rows_makes_the_error_of_a_finite_row_when_it_is_read(monkeypatch):
    """At finite coordinates a row that is not ok fails, so `rows` knows its
    index at once and calls the per-point table for its error only when
    the error is read; a row with an infinite coordinate is evaluated at
    once, since it may not fail."""
    table = Table([parse("sqrt(u)", ("u", "v")), parse("u + v", ("u", "v"))], ("u", "v"))
    points = np.array([[-0.25, 0.5], [0.5, 0.5], [-1.0, 0.0], [math.inf, 1.0]])
    calls = []
    original = Table.__call__

    def spy(self, point):
        calls.append(list(point))
        return original(self, point)

    monkeypatch.setattr(Table, "__call__", spy)
    _, failures = table.rows(points)
    assert list(failures) == [0, 2, 3] and calls == [[math.inf, 1.0]]
    assert str(failures[2]) == "sqrt of negative value -1.0" and calls[1:] == [[-1.0, 0.0]]
    assert failures.get(1) is None and failures[2] is failures.get(2) and len(calls) == 2
    assert {i: str(e) for i, e in failures.items()} == {i: per_point(table, points[i])[1] for i in (0, 2, 3)}


def test_at_many_sums_like_fsum():
    """Plain numpy addition changes the last bits of a sum of three or more
    terms; 0.1 + 0.2 + 0.3 is one such sum.  A sum of -0.0 terms is 0.0.
    The compiled table, which prints the same plan, sums the same way."""
    table = Table([parse("u + v + w", ("u", "v", "w")), parse("u + v", ("u", "v", "w")),
                   parse("-u", ("u", "v", "w"))], ("u", "v", "w"))
    points = np.array([[0.1, 0.2, 0.3], [-0.0, -0.0, -0.0], [1e308, 1e308, -1e308]])
    values, ok = table.at_many(points)
    assert values[0].tolist() == list(table([0.1, 0.2, 0.3]))
    assert values[0, 0] != (0.1 + 0.2) + 0.3
    assert [v.hex() for v in values[1]] == ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]
    assert ok.tolist() == [True, True, False]    # fsum overflows inside 1e308 + 1e308 - 1e308
    compiled = expr.compile_table(table.exprs, table.names)
    outcomes = [per_point(lambda p: compiled(*p), p) for p in points.tolist()]
    assert outcomes == [per_point(lambda p: expr._interpret(table.exprs, table.names, p), p)
                        for p in points.tolist()]
    assert outcomes[1] == ("0x0.0p+0",) * 3 and outcomes[2][0] is DomainError


def test_at_many_and_the_compiled_table_share_one_plan(monkeypatch):
    plans = []

    class CountedPlan(expr._BatchPlan):
        def __init__(self, *args):
            plans.append(self)
            super().__init__(*args)

    monkeypatch.setattr(expr, "_BatchPlan", CountedPlan)
    g = sphere_chart(3)
    table = Table(g.christoffel.values(), g.frame.names)
    points = np.random.default_rng(4).uniform(-1, 1, (6, 3))
    values, ok = table.at_many(points)
    assert ok.all() and len(plans) == 1
    assert [tuple(table.compiled()(*p)) for p in points.tolist()] == [tuple(row) for row in values.tolist()]
    table.at_many(points)
    assert len(plans) == 1


def test_at_many_compiles_nothing_and_checks_the_point_length(monkeypatch):
    monkeypatch.setattr(expr, "compile_table", None)
    g = random_connection(frame(3), spawn_rng(1))
    for _ in range(4):
        values, ok = g.table.at_many(np.zeros((5, 3)))
    assert ok.all() and g.table._compiled is None
    with pytest.raises(DimensionMismatchError):
        g.table.at_many(np.zeros((5, 2)))


def test_at_many_of_no_points_and_of_no_trees():
    values, ok = Table([parse("u", ("u",))], ("u",)).at_many(np.zeros((0, 1)))
    assert values.shape == (0, 1) and ok.shape == (0,)
    values, ok = Table([], ("u",)).at_many(np.zeros((3, 1)))
    assert values.shape == (3, 0) and ok.all()


def test_a_table_pickles_after_at_many():
    g = sphere_chart(2)      # its powers are per-point operations of the batch plan
    points = np.array([[0.3, 0.1], [-0.5, 0.2]])
    arrays, _ = g.christoffel_many(points)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy.christoffel_many(points)[0].tobytes() == arrays.tobytes()


def test_christoffel_many_stacks_christoffel_at():
    g = Connection.from_entries(frame(2), {(1, 1, 2): parse("sqrt(u1)", frame(2)), (1, 2, 1): parse("u2", frame(2))})
    points = np.array([[0.25, 0.5], [-0.25, 0.5], [0.5, -1.0]])
    arrays, failures = g.christoffel_many(points)
    assert list(failures) == [1] and str(failures[1]) == "sqrt of negative value -0.25"
    for i in (0, 2):
        assert np.array_equal(arrays[i], g.christoffel_at(points[i]))


# ---------------------------------------------------------------------------
# draw_regular, one sample or a batch at a time


def _per_sample(rng):
    def draw():
        x = rng.uniform()
        if x < 0.6:
            raise DomainError(f"low {x}")
        return x
    return draw


def _batched(rng):
    def draw(k):
        return [outcome(_check, x) for x in rng.uniform(size=k)]
    return draw


def _check(x):
    if x < 0.6:
        raise DomainError(f"low {x}")
    return x


@pytest.mark.parametrize("count", [1, 5, 40, 3000])
def test_batched_draws_accept_the_same_samples_and_leave_the_same_stream(count):
    rng, replay = spawn_rng(21), spawn_rng(21)
    assert draw_regular(_batched(rng), count, batch=True) == draw_regular(_per_sample(replay), count)
    assert rng.uniform() == replay.uniform()


def test_batched_draws_give_up_with_the_same_message():
    def never(rng):
        return lambda k: [DomainError(f"failed {rng.uniform()}") for _ in range(k)]

    with pytest.raises(DomainError) as batched:
        draw_regular(never(spawn_rng(22)), 3, batch=True)
    replay = spawn_rng(22)

    def fail():
        raise DomainError(f"failed {replay.uniform()}")

    with pytest.raises(DomainError) as one_by_one:
        draw_regular(fail, 3)
    assert str(batched.value) == str(one_by_one.value)
    assert str(batched.value).startswith("could not sample: 300 draws failed and 0 of 3 succeeded")


def _counting_stretches(monkeypatch):
    """The stretches of stacked dets that walks take, recorded from now
    on as (start, n, count)."""
    stretches, regular = [], WordStream._regular

    def counting(self, start, n, count):
        stretches.append((start, n, count))
        return regular(self, start, n, count)

    monkeypatch.setattr(WordStream, "_regular", counting)
    return stretches


@pytest.mark.parametrize("rejecting", [False, True])
@pytest.mark.parametrize("n, l", [(1, 2), (1, 3), (2, 3), (2, 4)])
def test_secjet1_stream_reads_what_secjet1_arrays_draws(n, l, rejecting, monkeypatch):
    # a block passes where |det| >= 0.9, which rejects most candidates
    if rejecting:
        monkeypatch.setattr(sampling, "MIN_DET", 0.9)
    stretches = _counting_stretches(monkeypatch)
    stream, rng = WordStream(spawn_rng(31 + l)), spawn_rng(31 + l)
    for k in (1, 7, 50):
        drawn = secjet1_stream(n, l, stream, k)
        expected = [np.array(column) for column in zip(*(secjet1_arrays(n, l, rng) for _ in range(k)))]
        assert all(same_bits(a, b) for a, b in zip(drawn, expected))
        # the stream has consumed what the generator has drawn
        assert stream.peek(1)[0] == rng.uniform(-1.0, 1.0)
        stream.skip(1)
    # where most candidates are rejected, a walk runs past its first stretch
    assert len(stretches) > 3 or not rejecting


def test_secjet1_stream_gives_up_as_secjet1_arrays_does(monkeypatch):
    # a 2 x 2 block passes where |det| >= 1.875, which almost none do
    monkeypatch.setattr(sampling, "MIN_DET", 1.875)
    stream, rng = WordStream(spawn_rng(36)), spawn_rng(36)
    with pytest.raises(DomainError) as batched:
        secjet1_stream(2, 3, stream, 50)
    with pytest.raises(DomainError) as one_by_one:
        for _ in range(50):
            secjet1_arrays(2, 3, rng)
    assert str(batched.value) == str(one_by_one.value)
    assert str(batched.value).startswith("could not sample: 100 draws failed and 0 of 1 succeeded")
    assert stream.peek(1)[0] == rng.uniform(-1.0, 1.0)


# ---------------------------------------------------------------------------
# the batched checks against their per-sample oracles


def _sqrt_connection(l):
    # sqrt(u1) fails wherever u1 < 0: about half of the points are redrawn
    f = frame(l)
    g = Connection.from_entries(f, {(1, 1, 2): parse("sqrt(u1)", f), (1, 2, 2): parse("u2^2 - u1", f)})
    return g, projective_shift(g, [parse("u2", f)] + [parse(f"u1*u{i}", f) for i in range(2, l + 1)])


def _random_pairs():
    rng = spawn_rng(24)
    pairs = []
    for l, n in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 1), (5, 2)):
        g = random_connection(frame(l, n), rng)
        psi = random_expressions(g.frame.names, rng, n)
        chi = random_expressions(g.frame.names, rng, l - n) if n == 1 else None
        pairs.append((g, grass_shift(g, n, psi, chi), n))
    return pairs


@pytest.mark.parametrize("case", ["random", "sqrt"])
def test_batched_invariant_comparisons_equal_the_oracle_and_leave_the_same_rng(case):
    pairs = _random_pairs() if case == "random" else [(*_sqrt_connection(l), 1) for l in (2, 3)]
    for g1, g2, n in pairs:
        rng, replay = spawn_rng(25), spawn_rng(25)
        assert pi_deviation(g1, g2, rng) == pi_deviation_oracle(g1, g2, replay)
        assert invariants_match(g1, g2, n, rng) == invariants_match_oracle(g1, g2, n, replay)
        assert rng.uniform() == replay.uniform()


def _recorded(monkeypatch, module):
    """Wrap `draw_regular` where `module` calls it, recording what it
    returns: the accepted samples in order and the redraw count."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(draw_regular(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, "draw_regular", recording)
    return calls


def _equivalence_cases():
    # l, n = 4, 2: a point may start only at every fourth number
    for l, n in ((3, 1), (4, 2), (5, 2)):
        g, shifted = _sqrt_connection(l)
        yield g, shifted, n
    # singular points at the first two points of the stream when a redrawn
    # point takes l numbers, not l + m n: the second is reached only so
    f = frame(3)
    first = spawn_rng(7, 0).uniform(-1.0, 1.0, 6)
    singular = (tuple(first[:3]), tuple(first[3:6]))
    g = random_connection(f, spawn_rng(26))
    yield Connection(f, g.christoffel, singular), projective_shift(g, random_expressions(f.names, spawn_rng(27), 3)), 1
    for g1, g2, n in _random_pairs():
        yield g1, g2, n
    yield g1, Connection.from_entries(g1.frame, {**dict(g1.christoffel), (1, 1, 2): parse("1", g1.frame)}), n


def test_batched_grass_equivalent_accepts_the_oracle_samples(monkeypatch):
    batched, one_by_one = _recorded(monkeypatch, geodesy), _recorded(monkeypatch, conftest)
    for g1, g2, n in _equivalence_cases():
        for samples in (1, 10, 50):
            assert grass_equivalent(g1, g2, n, samples, seed=7) == \
                grass_equivalent_oracle(g1, g2, n, samples, seed=7)
            assert batched[-1] == one_by_one[-2]     # the oracle's last call is its invariant comparison
    assert any(redrawn > 0 for _, redrawn in batched)


def test_batched_grass_equivalent_skips_a_singular_point_by_l_numbers():
    f = frame(3)
    g = random_connection(f, spawn_rng(28))
    first = tuple(spawn_rng(9, 0).uniform(-1.0, 1.0, 3))
    singular = Connection(f, g.christoffel, (first,))
    calls = []
    original = Connection.christoffel_many

    def spy(self, points):
        if self is g:
            calls.append(np.array(points))
        return original(self, points)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Connection, "christoffel_many", spy)
        grass_equivalent(singular, g, 1, samples=2, seed=9)
    # g (not the singular copy, which is evaluated through the same method)
    # is evaluated at the jets kept after the singular point: the first
    # batch's 10 numbers hold the point and one jet, the second batch the other
    numbers = spawn_rng(9, 0).uniform(-1.0, 1.0, 3 + 2 * 5)
    assert np.array_equal(np.concatenate(calls[:2]), numbers[3:].reshape(2, 5)[:, :3])


def _overflow_connection(l):
    # a residual that overflows to inf, or is inf - inf, at some jets: they are redrawn
    f = frame(l)
    return Connection.from_entries(f, {(1, 1, 1): parse("10^308*u1", f), (1, 2, 2): parse("10^308*u2", f),
                                       (2, 2, 1): parse("10^308", f)})


@pytest.mark.parametrize("case", ["random", "sqrt", "overflow"])
def test_batched_affine_symmetry_check_equals_the_oracle(case):
    rng = spawn_rng(29)
    for i, (n, m) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
        g = (random_connection(frame(n + m, n), rng) if case == "random"
             else _sqrt_connection(n + m)[0] if case == "sqrt" else _overflow_connection(n + m))
        theta = Connection.flat(n)
        aff = random_affine(n, rng)
        for samples in (1, 7, 50):
            report = affine_symmetry_check(g, theta, aff, samples=samples, seed=i)
            assert report == affine_symmetry_check_oracle(g, theta, aff, samples=samples, seed=i)
            assert all(math.isfinite(r) for _, r in report.rows)
            if case != "random" and samples == 50:
                assert report.skipped > 0


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_affine_residuals_are_the_residuals_of_each_acted_extension(n, m):
    """Per jet, with one affine map per row of jets, as criterion 7 stacks
    them, or one map for all, as `affine_symmetry_check` passes it."""
    rng = spawn_rng(37 + 2 * n + m)
    l, theta = n + m, Connection.flat(n)
    g = random_connection(frame(l, n), rng)
    maps = [random_affine(n, rng) for _ in range(3)]
    jets = [[random_secjet1(n, l, rng) for _ in range(6)] for _ in maps]
    G = np.stack([g.christoffel_many(np.array([p.u for p in row]))[0] for row in jets])
    first = np.stack([[p.first for p in row] for row in jets])
    ainv = np.stack([np.linalg.inv(aff.a) for aff in maps])[:, None]
    expected = np.array([[param_residual2(g, theta, affine_act(aff, ddot_gamma_pro(g, theta, p))).max_abs()
                          for p in row] for aff, row in zip(maps, jets)])
    assert same_bits(affine_residuals(G, first, ainv), expected)
    assert same_bits(affine_residuals(G[1], first[1], ainv[1, 0]), expected[1])


def _reparam_case(case):
    """(g, Θ, φ, x frame) of a reparametrization check: a cubic φ on the
    zero connection; a sqrt φ that fails where x1 < 0, about half the
    draws; a φ whose derivative 3 x1^2 - 1/2 is below 1 and fails the
    raised determinant test of the gate case where |x1| < 0.58; two
    parameters, with g failing where u1 < 0."""
    x1, x2 = CoordinateFrame(("x1",), 1), CoordinateFrame(("x1", "x2"), 2)
    if case == "two":
        return (_sqrt_connection(4)[0], Connection.zero(x2),
                ["x1^2 + x2 + 3*x1", "x1*x2 + 2*x2 - x1/(x2 - 1/3)"], x2)
    g = random_connection(frame(3), spawn_rng(38)) if case == "sqrt" else Connection.zero(frame(2))
    phi = {"cubic": "x1^3 + x1", "sqrt": "sqrt(x1) + x1^2", "gate": "x1^3 - x1/2"}[case]
    return g, Connection.zero(x1), [phi], x1


def _report_bits(report):
    coordinates, residuals = zip(*report.rows)
    return np.array(coordinates).tobytes(), np.array(residuals).tobytes(), report.skipped


@pytest.mark.parametrize("case", ["cubic", "sqrt", "gate", "two"])
def test_batched_reparam_symmetry_check_equals_the_oracle(case, monkeypatch):
    if case == "gate":
        monkeypatch.setattr("jetgeo.jets._DET_THRESHOLD", 0.5)
    g, theta, phi, x_frame = _reparam_case(case)
    phi = [parse(text, x_frame) for text in phi]
    skipped = 0
    for seed in (0, 3, 11):
        for samples in (1, 7, 30):
            report = reparam_symmetry_check(g, theta, phi, x_frame, samples=samples, seed=seed)
            oracle = reparam_symmetry_check_oracle(g, theta, phi, x_frame, samples=samples, seed=seed)
            assert _report_bits(report) == _report_bits(oracle)
            skipped += report.skipped
    assert (skipped > 0) == (case != "cubic")


def test_batched_reparam_symmetry_check_gives_up_as_the_oracle_does():
    g, theta, _, x_frame = _reparam_case("cubic")
    phi = [parse("sqrt(x1 - 2)", x_frame)]
    with pytest.raises(DomainError) as batched:
        reparam_symmetry_check(g, theta, phi, x_frame, samples=3)
    with pytest.raises(DomainError) as one_by_one:
        reparam_symmetry_check_oracle(g, theta, phi, x_frame, samples=3)
    assert str(batched.value) == str(one_by_one.value)
    assert str(batched.value).startswith("could not sample: 300 draws failed and 0 of 3 succeeded")


@pytest.mark.parametrize("case", ["random", "sqrt", "overflow"])
def test_batched_orbit_quotient_check_equals_the_oracle(case, monkeypatch):
    batched, one_by_one = _recorded(monkeypatch, symmetry), _recorded(monkeypatch, conftest)
    rng = spawn_rng(30)
    for n, l in ((1, 2), (1, 3), (2, 3), (2, 4)):
        g = (random_connection(frame(l, n), rng) if case == "random"
             else _sqrt_connection(l)[0] if case == "sqrt" else _overflow_connection(l))
        for samples in (1, 7, 25):
            report = orbit_quotient_check(g, n, samples=samples, seed=l)
            # repr, so that a NaN deviation compares equal to itself
            assert repr(report) == repr(orbit_quotient_check_oracle(g, n, samples=samples, seed=l))
            assert repr(batched[-1]) == repr(one_by_one[-1])
    if case == "sqrt":
        assert any(redrawn > 0 for _, redrawn in batched)
    if case == "overflow":
        assert not math.isfinite(report.factoring_deviation)


_COVER_CHECK_CASES = {
    # g and Θ: a golden spec, or entries over (u1, u2) with n = 1 and over x1
    "flat-theta": ("l4.json", None, 40),
    # Θ fails where x1 < -1/2, so samples are redrawn where g is regular
    "theta-fails": ("l4.json", "theta_n2.json", 40),
    "g-fails": ([{"lower": [1, 1], "upper": 2, "expr": "sqrt(u1)"}], None, 30),
    "not-finite": ([{"lower": [1, 1], "upper": 2, "expr": "10^308*u1 + 10^308*u2 + 10^308"}], None, 10),
    # both fail everywhere: the message is g's
    "give-up": ([{"lower": [1, 1], "upper": 2, "expr": "sqrt(-1 - u1^2)"}],
                [{"lower": [1, 1], "upper": 1, "expr": "sqrt(-2 - x1^2)"}], 3),
    # more samples than one batch takes: a shortfall of redrawn samples
    # walks on in the same stream, round after round
    "theta-fails-many": ("l4.json", "theta_n2.json", 1500),
}


def _spec_path(tmp_path, spec, coords):
    if isinstance(spec, str):
        return os.path.join(GOLDEN, spec)
    path = tmp_path / f"{coords[0]}.json"
    path.write_text(json.dumps({"coords": coords, "n": 1, "christoffel": spec}))
    return str(path)


@pytest.mark.parametrize("case", sorted(_COVER_CHECK_CASES))
def test_batched_cover_check_equals_the_oracle_and_leaves_the_same_rng(case, tmp_path, monkeypatch, capsys):
    spec, theta_spec, samples = _COVER_CHECK_CASES[case]
    spec = _spec_path(tmp_path, spec, ["u1", "u2"])
    g = load_connection(spec)
    n = g.frame.split
    argv = ["cover-check", spec, "--samples", str(samples), "--seed", "3", "--format", "json"]
    theta = Connection.flat(n)
    if theta_spec:
        argv += ["--theta", _spec_path(tmp_path, theta_spec, ["x1"])]
        theta = load_connection(argv[-1])
    rngs = []
    monkeypatch.setattr(cli, "spawn_rng", lambda *args: rngs.append(spawn_rng(*args)) or rngs[-1])
    code = cli.main(argv)
    out, err = capsys.readouterr()
    replay = spawn_rng(3, 0)
    if case == "give-up":
        with pytest.raises(DomainError) as e:
            cover_check_oracle(g, theta, n, samples, replay)
        assert "could not sample" in str(e.value)
        assert (code, out, err) == (2, "", f"error: {e.value}\n")
        return
    devs, redrawn = cover_check_oracle(g, theta, n, samples, replay)
    rows = json.loads(out)["rows"]
    assert [(repr(c), repr(q)) for _, c, q, _ in rows] == [(repr(c), repr(q)) for c, q in devs]
    assert rngs[0].uniform() == replay.uniform()
    assert (redrawn > 0) == (case != "flat-theta")


# ---------------------------------------------------------------------------
# the array formulas of the covering projections and the residual against
# their per-jet oracles


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_jet(a, b):
    return a.base == b.base and same_bits(a.first, b.first) and (
        a.second is b.second is None or same_bits(a.second, b.second))


def _covering_case(n, m, rng, count=25):
    """A connection g on l = n + m coordinates, a Θ on n, `count` order-2
    section jets whose derivatives are scaled by 10^-2..10^2, and a tangent
    vector (dx, du, dd) at each."""
    l = n + m
    g = random_connection(frame(l, n), rng)
    theta = random_connection(CoordinateFrame(tuple(f"x{i}" for i in range(1, n + 1)), n), rng)
    jets = []
    for _ in range(count):
        t = random_secjet2(n, l, rng)
        scale = 10.0 ** rng.uniform(-2, 2)
        jets.append(SecJet(n, l, t.x, t.u, scale * t.first, scale * t.second))
    tangents = [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, l), rng.uniform(-1, 1, (l, n))) for _ in jets]
    return g, theta, jets, tangents


def _stacks(g, theta, jets, tangents):
    """G at each jet's u, Θ's array at its x, its first and second
    derivatives, and dx, du, dd: C-contiguous stacks over the jets."""
    G = np.array([g.christoffel_at(t.u) for t in jets])
    Th = np.array([theta.christoffel_at(t.x) for t in jets])
    D, second = np.array([t.first for t in jets]), np.array([t.second for t in jets])
    return (G, Th, D, second, *(np.array(column) for column in zip(*tangents)))


@pytest.mark.parametrize("n, m", acceptance._DIM_CASES)
def test_covering_formulas_equal_the_per_jet_oracles(n, m):
    g, theta, jets, tangents = _covering_case(n, m, spawn_rng(40 + 2 * n + m))
    G, Th, D, second, dx, du, dd = _stacks(g, theta, jets, tangents)
    inv = inverse_top_blocks(D, n)
    first, sub_second = cover_first(D, inv), cover_second(D, second, inv)
    pushed = tangent_cover_table(D, dd, inv)
    residuals = np.abs(residual_table(G, first, sub_second)).max(axis=(1, 2, 3))
    commutation = covering_commutation_deviations(G, Th, D)
    quotient = quotient_diagram_deviations(G, Th, D, dx, du, dd)
    for i, (t, tangent) in enumerate(zip(jets, tangents)):
        q = cover2_oracle(t)
        assert same_jet(cover1(t), cover1_oracle(t)) and same_jet(cover2(t), q)
        assert same_bits(first[i], q.first) and same_bits(sub_second[i], q.second)
        assert same_bits(pushed[i], tangent_cover1_oracle(t, *tangent)[1])
        assert same_bits(residual2(g, q).table, residual2_oracle(g, q).table)
        assert repr(residuals[i].item()) == repr(residual2_oracle(g, q).max_abs())
        p = t.truncate(1)
        expected = covering_commutation_deviation_oracle(g, theta, p)
        assert repr(covering_commutation_deviation(g, theta, p)) == repr(commutation[i].item()) == repr(expected)
        expected = quotient_diagram_deviation_oracle(g, theta, p, *tangent)
        assert repr(quotient_diagram_deviation(g, theta, p, *tangent)) == repr(quotient[i].item()) == repr(expected)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(acceptance._DIM_CASES), st.lists(st.integers(1, 3), max_size=2), st.integers(0, 6),
       st.integers(0, 2 ** 32 - 1))
def test_dot_gamma_via_xi_table_is_the_per_jet_loop(case, lead, bare, seed):
    """Bit i of `bare` leaves the i-th of G, Xi and D without the leading
    axes, so that it broadcasts against the others."""
    n, m = case
    l = n + m
    rng = spawn_rng(seed)

    def operand(i, shape):
        full = shape if bare >> i & 1 else (*lead, *shape)
        return rng.uniform(-1.0, 1.0, full) * 10.0 ** rng.uniform(-2, 2)

    G, Xi, D = operand(0, (l, l, l)), operand(1, (l, n, n)), operand(2, (m, n))
    table = dot_gamma_via_xi_table(G, Xi, D)
    assert table.shape == (*lead, l, m, n)
    for index in np.ndindex(*lead):
        jet = (np.ascontiguousarray(a[index] if a.ndim > k else a) for a, k in ((G, 3), (Xi, 3), (D, 2)))
        assert same_bits(table[index], dot_gamma_via_xi_oracle(*jet))


def _singular(t, top):
    """t with its base-direction block replaced by `top`."""
    first = np.array(t.first)
    first[:t.n] = top
    return SecJet(t.n, t.l, t.x, t.u, first, t.second)


@pytest.mark.parametrize("n, tops", [
    (1, ([[0.0]], [[1e-13]])),
    (2, ([[1.0, 2.0], [2.0, 4.0]], [[3e-7, 0.0], [0.0, 3e-7]])),
])
def test_a_singular_top_block_raises_the_oracle_message(n, tops):
    g, theta, jets, tangents = _covering_case(n, 1, spawn_rng(45 + n), count=5)
    jets[1], jets[3] = _singular(jets[1], tops[0]), _singular(jets[3], tops[1])
    G, Th, D, second, dx, du, dd = _stacks(g, theta, jets, tangents)

    def message(fn, *args):
        with pytest.raises(SingularJacobianError) as e:
            fn(*args)
        return str(e.value)

    for t, tangent in zip((jets[1], jets[3]), (tangents[1], tangents[3])):
        expected = message(cover1_oracle, t)
        p = t.truncate(1)
        assert expected == message(cover2_oracle, t) == message(tangent_cover1_oracle, t, *tangent)
        for fn, args in ((cover1, (t,)), (cover2, (t,)), (inverse_top_blocks, (t.first, n)),
                         (covering_commutation_deviation, (g, theta, p)),
                         (quotient_diagram_deviation, (g, theta, p, *tangent))):
            assert message(fn, *args) == expected
    # a stack raises at its first singular block
    expected = message(cover1_oracle, jets[1])
    assert message(inverse_top_blocks, D, n) == expected
    assert message(covering_commutation_deviations, G, Th, D) == expected
    assert message(quotient_diagram_deviations, G, Th, D, dx, du, dd) == expected


class _Fixed:
    """A connection stand-in whose `christoffel_at` is one fixed array."""

    def __init__(self, G):
        self.G, self.dim = G, G.shape[-1]

    def christoffel_at(self, point):
        return self.G


@pytest.mark.parametrize("n, m", acceptance._DIM_CASES)
def test_a_nan_in_gamma_propagates_to_its_rows_deviation(n, m):
    rng = spawn_rng(47 + 2 * n + m)
    g, theta, jets, tangents = _covering_case(n, m, rng, count=6)
    G, Th, D, second, dx, du, dd = _stacks(g, theta, jets, tangents)
    poisoned = (1, 4)
    for i in poisoned:
        G[i].flat[rng.integers(G[i].size)] = np.nan
    inv = inverse_top_blocks(D, n)
    residuals = np.abs(residual_table(G, cover_first(D, inv), cover_second(D, second, inv))).max(axis=(1, 2, 3))
    commutation = covering_commutation_deviations(G, Th, D)
    quotient = quotient_diagram_deviations(G, Th, D, dx, du, dd)
    for i, (t, tangent) in enumerate(zip(jets, tangents)):
        gi, thetai, p = _Fixed(G[i]), _Fixed(Th[i]), t.truncate(1)
        expected = (residual2_oracle(gi, cover2_oracle(t)).max_abs(),
                    covering_commutation_deviation_oracle(gi, thetai, p),
                    quotient_diagram_deviation_oracle(gi, thetai, p, *tangent))
        got = (residuals[i].item(), commutation[i].item(), quotient[i].item())
        assert [repr(v) for v in got] == [repr(v) for v in expected]
        assert all(math.isnan(v) for v in got) == (i in poisoned)


# ---------------------------------------------------------------------------
# the distribution checks against their per-sample oracles


def test_subjet1_stream_reads_what_random_subjet1_draws():
    for n, m in acceptance._DIM_CASES:
        stream, rng = WordStream(spawn_rng(50 + 2 * n + m)), spawn_rng(50 + 2 * n + m)
        for k in (1, 7, 300):
            base, first = subjet1_stream(n, m, stream, k)
            jets = [random_subjet1(n, m, rng) for _ in range(k)]
            assert same_bits(base, [p.base for p in jets]) and same_bits(first, [p.first for p in jets])
            assert stream.peek(1)[0] == rng.uniform(-1.0, 1.0)
            stream.skip(1)


@pytest.mark.parametrize("n, m", acceptance._DIM_CASES + ((1, 3), (3, 1)))
def test_distribution_generators_equal_the_per_jet_oracles(n, m):
    """The stacked generators at jets whose derivatives are scaled by
    10^-2..10^2, against the per-jet `distribution_fields` and the
    row-by-row oracles."""
    rng = spawn_rng(60 + 4 * n + m)
    l = n + m
    g = random_connection(frame(l, n), rng)
    theta = random_connection(CoordinateFrame(tuple(f"x{i}" for i in range(1, n + 1)), n), rng)
    subjets = [random_subjet1(n, m, rng) for _ in range(12)]
    subjets = [SubJet(n, m, p.base, 10.0 ** rng.uniform(-2, 2) * p.first) for p in subjets]
    secjets = [random_secjet2(n, l, rng).truncate(1) for _ in range(12)]
    rows = distribution_rows(np.array([g.christoffel_at(p.base) for p in subjets]),
                             np.array([p.first for p in subjets]))
    pro_rows = pro_distribution_rows(np.array([g.christoffel_at(t.u) for t in secjets]),
                                     np.array([theta.christoffel_at(t.x) for t in secjets]),
                                     np.array([t.first for t in secjets]))
    for i, (p, t) in enumerate(zip(subjets, secjets)):
        assert same_bits(rows[i], distribution_fields_oracle(g, p))
        assert same_bits(geodesy.distribution_fields(g, p), distribution_fields_oracle(g, p))
        assert same_bits(pro_rows[i], pro_distribution_rows_oracle(g, theta, t))


def _outcomes(monkeypatch):
    """Record, where `symmetry` calls `draw_regular`, each sample's outcome
    in the order drawn: its row's repr, or the type and text of its error."""
    seen = []

    def text(result):
        return (type(result), str(result)) if isinstance(result, Exception) else repr(result)

    def recording(draw, count, batch=False):
        if batch:
            def batched(k):
                out = draw(k)
                seen.extend(text(o) for o in out)
                return out
            return draw_regular(batched, count, batch=True)

        def single():
            result = outcome(draw)
            seen.append(text(result))
            if isinstance(result, Exception):
                raise result
            return result
        return draw_regular(single, count)

    monkeypatch.setattr(symmetry, "draw_regular", recording)
    return seen


def _same_checks(monkeypatch, check, oracle, *args, **kwargs):
    """`check` and `oracle` on the same arguments give reports with equal
    reprs, or give up with the same message, after the same sample outcomes
    (the batch may have drawn past the one it gave up at)."""
    seen = _outcomes(monkeypatch)
    results = []
    for fn in (check, oracle):
        start = len(seen)
        try:
            results.append(repr(fn(*args, **kwargs)))
        except DomainError as e:
            results.append(("gave up", str(e)))
        results.append(seen[start:])
        del seen[start:]
    report, outcomes, expected_report, expected = results
    assert report == expected_report
    if isinstance(report, tuple):
        assert outcomes[:len(expected)] == expected
    else:
        assert outcomes == expected
    return report


def _subjet_maps(f, n, rng):
    """Maps over the submanifold jet chart of frame f: a prolonged linear
    point map, random polynomials, and random polynomials with a component
    that fails where the second coordinate is negative and one whose
    derivative by the first overflows at about half of the points."""
    chart = subjet1_chart(f, n)
    l = f.dim
    a = rng.uniform(-1, 1, (l, l)) + 2.0 * np.eye(l)
    linear = [expr.normal_sum([(expr.Sym(name), Fraction(a[r, c]).limit_denominator(1000))
                               for c, name in enumerate(f.names)], Fraction(0)) for r in range(l)]
    polynomials = random_expressions(chart, rng, len(chart))
    failing = list(random_expressions(chart, rng, len(chart)))
    failing[0] = parse(f"{chart[0]} + sqrt({chart[1]})", chart)
    failing[-1] = parse(f"{chart[-1]} + 10^305*sin(3000*{chart[0]})", chart)
    return [prolong_point_map(linear, f, n)] + [JetMap("subjet", n, chart, tuple(c)) for c in (polynomials, failing)]


def _connections(l, n, rng):
    f = frame(l, n)
    return [random_connection(f, rng), Connection(f, _sqrt_connection(l)[0].christoffel), _overflow_connection(l)]


@pytest.mark.parametrize("n, m", acceptance._DIM_CASES)
def test_batched_preserves_distribution_equals_the_oracle_on_subjet_maps(n, m, monkeypatch):
    rng = spawn_rng(70 + 2 * n + m)
    reports = []
    for g in _connections(n + m, n, rng):
        for jmap in _subjet_maps(g.frame, n, rng):
            for samples in (1, 12):
                reports.append(_same_checks(monkeypatch, preserves_distribution, preserves_distribution_oracle,
                                            jmap, g, n, samples=samples, seed=samples))
    # some checks redraw samples and still report
    assert any("skipped=0" not in r for r in reports if isinstance(r, str))


def _secjet_cases(n, l, rng):
    """Θ (flat, or failing where x1 < -1/2) and maps over the section jet
    chart: the identity, random polynomials, and a map that sends x1 to
    2 x1 + 1 with a component that fails where the first fibre derivative
    is negative."""
    x_frame = CoordinateFrame(tuple(f"x{i}" for i in range(1, n + 1)), n)
    chart = secjet1_chart(x_frame, frame(l, n))
    thetas = [Connection.flat(n), Connection(x_frame, {(1, 1, 1): parse("sqrt(1/2 + x1)", x_frame)})]
    identity = tuple(parse(name, chart) for name in chart)
    failing = list(random_expressions(chart, rng, len(chart)))
    failing[0] = parse("2*x1 + 1", chart)
    failing[n + l] = parse(f"sqrt({chart[n + l]})", chart)
    maps = [JetMap("secjet", n, chart, c) for c in (identity, random_expressions(chart, rng, len(chart)), failing)]
    return thetas, maps


@pytest.mark.parametrize("n, m", acceptance._DIM_CASES)
def test_batched_preserves_distribution_equals_the_oracle_on_secjet_maps(n, m, monkeypatch):
    rng = spawn_rng(80 + 2 * n + m)
    l = n + m
    thetas, maps = _secjet_cases(n, l, rng)
    for g in _connections(l, n, rng):
        for theta in thetas:
            for jmap in maps:
                for samples in (1, 12):
                    _same_checks(monkeypatch, preserves_distribution, preserves_distribution_oracle,
                                 jmap, g, n, samples=samples, seed=samples, theta=theta)


@pytest.mark.parametrize("n, m", acceptance._DIM_CASES)
def test_batched_field_preserves_distribution_equals_the_oracle(n, m, monkeypatch):
    rng = spawn_rng(90 + 2 * n + m)
    l = n + m
    for g in _connections(l, n, rng):
        chart = subjet1_chart(g.frame, n)
        failing = list(random_expressions(chart, rng, len(chart)))
        failing[-1] = parse(f"sqrt({chart[0]})", chart)
        fields = [prolong_point_field(random_expressions(g.frame.names, rng, l), g.frame, n),
                  JetField("subjet", n, chart, tuple(failing))]
        for f in fields:
            for samples in (1, 12):
                _same_checks(monkeypatch, field_preserves_distribution, field_preserves_distribution_oracle,
                             f, g, n, samples=samples, seed=samples)


def test_the_distribution_checks_give_up_with_the_oracle_message(monkeypatch):
    """g fails where u1 < 0 and, as the map negates u1, at the image where
    u1 > 0, so every sample is redrawn; the map fails where u2 < 0 in
    between.  The last error named is the first one of the last sample."""
    f = frame(2)
    g = Connection(f, {(1, 1, 2): parse("sqrt(u1)", f)})
    chart = subjet1_chart(f, 1)
    jmap = JetMap("subjet", 1, chart, tuple(parse(c, chart) for c in ("-u1", "u2 + sqrt(u2)", "u2_1")))
    euler = prolong_point_field((expr.Sym("u1"), expr.Sym("u2")), f, 1)
    for seed in range(4):
        report = _same_checks(monkeypatch, preserves_distribution, preserves_distribution_oracle,
                              jmap, g, 1, samples=2, seed=seed)
        assert report[1].startswith("could not sample: 200 draws failed and 0 of 2 succeeded")
        report = _same_checks(monkeypatch, field_preserves_distribution, field_preserves_distribution_oracle,
                              euler, Connection(f, {(1, 1, 2): parse("sqrt(-1 - u1^2)", f)}), 1,
                              samples=1, seed=seed)
        assert report[1].startswith("could not sample: 100 draws failed")


# ---------------------------------------------------------------------------
# the coefficient form of random connections and of their shifts against
# the trees


def _coefficient_points(l, seed, count=6):
    """Points in [-1, 1]^l, then the same with a zero and a negative zero
    coordinate, where a product with a negative coefficient is -0.0 and a
    sum of two such terms must turn it into fsum's 0.0."""
    points = spawn_rng(seed, 5).uniform(-1.0, 1.0, (count, l))
    zeros = points.copy()
    zeros[:, 0] = 0.0
    zeros[:, -1] = -0.0
    return np.concatenate([points, zeros, np.zeros((1, l)), np.full((1, l), -0.0)])


def _same_as_trees(drawn, points):
    """The coefficient form evaluates to the bits of its trees, at one point
    and over the batch."""
    g = drawn.connection()
    G, failures = drawn.christoffel_many(points)
    H, tree_failures = g.christoffel_many(points)
    assert G.tobytes() == H.tobytes() and G.flags.c_contiguous and failures == tree_failures == {}
    for point, row in zip(points, G):
        at = drawn.christoffel_at(point)
        assert at.tobytes() == g.christoffel_at(point).tobytes() == row.tobytes()


_COEFFICIENT_FRAMES = [_frame(l, n) for l, n in ((2, 1), (3, 1), (3, 2), (4, 2))] + [CoordinateFrame(("x1", "x2"), 1)]


@pytest.mark.parametrize("f", _COEFFICIENT_FRAMES, ids=lambda f: f"{','.join(f.names)}-n{f.split}")
def test_drawn_and_shifted_coefficients_evaluate_to_the_bits_of_their_trees(f):
    l, n = f.dim, f.split
    kinds = set()
    for seed in range(40):
        rng = spawn_rng(seed, 30)
        drawn = draw_connection(f, rng)
        phi = draw_polynomials(f.names, rng, l)
        psi, chi = phi[:n], (phi[n:] if n == 1 else None)
        for coefficients, trees in (
            (drawn, drawn.connection()),
            (projective_shift(drawn, phi), projective_shift(drawn.connection(), _trees(f, phi))),
            (grass_shift(drawn, n, psi, chi),
             grass_shift(drawn.connection(), n, _trees(f, psi), chi and _trees(f, chi))),
        ):
            built = coefficients.connection()
            assert built == trees and list(built.christoffel) == list(trees.christoffel)
            assert [to_text(e) for e in built.christoffel.values()] == [to_text(e) for e in trees.christoffel.values()]
            _same_as_trees(coefficients, _coefficient_points(l, seed))
            kinds |= {len(t) for t in coefficients.subtracted.values()}
    # nested parts of two and of three terms were met
    assert {2, 3} <= kinds


def _trees(f, polynomials):
    cores = _monomial_cores(f.names)
    return [sampling._polynomial(cores, t) for t in polynomials]


# on u1, u2, u3, by monomial index: 0 is the constant, 1..3 are u1..u3, then
# u1*u1, u1*u2, u1*u3, u2*u2, u2*u3, u3*u3
_HAND_PHI = [
    {2: 250},                       # one term: merges into each entry it shifts
    {0: 500, 1: -125},              # two terms: a nested sum
    {5: 300, 5 + 1: 0, 9: -710, 0: 3},  # a cancelled index and three terms: nested, fsum
]
_HAND_G = {
    (1, 1, 1): {2: 500},            # minus 2Φ_1 = 500/1000 u2: cancels to no terms
    (1, 2, 1): {0: 1, 2: -250},     # minus Φ_2, nested, beside terms of its own
    (2, 2, 2): {0: -1000},          # minus 2Φ_2: a nested sum of doubled thousandths
    (2, 3, 3): {7: 1},              # minus Φ_2, nested
    (3, 3, 3): {},                  # no terms of its own: minus 2Φ_3 alone, -1.0 * sum
}


def test_hand_made_shifts_merge_one_term_and_nest_longer_sums_as_the_trees_do():
    f = _frame(3, 1)
    drawn = PolynomialConnection(f, _HAND_G)
    shifted = projective_shift(drawn, _HAND_PHI)
    # Φ_1 has one term: it merges, and at (1, 1, 1) 2Φ_1 cancels the entry's own
    assert shifted.entries[(1, 1, 1)] == {2: 0} and (1, 1, 1) not in shifted.subtracted
    assert shifted.entries[(1, 2, 2)] == {2: -250} and (1, 2, 2) not in shifted.subtracted
    assert shifted.subtracted[(2, 2, 2)] == {0: 1000, 1: -250}
    assert shifted.subtracted[(3, 3, 3)] == {5: 600, 9: -1420, 0: 6}
    trees = projective_shift(drawn.connection(), _trees(f, _HAND_PHI))
    assert shifted.connection() == trees
    assert to_text(trees.christoffel[(3, 3, 3)]) == to_text(shifted.connection().christoffel[(3, 3, 3)])
    _same_as_trees(shifted, _coefficient_points(3, 1, count=20))
    # the nested sum is rounded on its own: collecting it into the entry's
    # thousandths would change bits at these points
    collected = PolynomialConnection(f, {key: {i: t.get(i, 0) - shifted.subtracted.get(key, {}).get(i, 0)
                                               for i in {*t, *shifted.subtracted.get(key, {})}}
                                         for key, t in shifted.entries.items()})
    points = _coefficient_points(3, 1, count=20)
    assert collected.christoffel_many(points)[0].tobytes() != shifted.christoffel_many(points)[0].tobytes()


def test_a_shifted_coefficient_connection_is_not_shifted_again():
    f = _frame(3, 1)
    shifted = projective_shift(PolynomialConnection(f, _HAND_G), _HAND_PHI)
    with pytest.raises(ValueError):
        projective_shift(shifted, _HAND_PHI)


def test_the_coefficient_form_fails_where_its_trees_fail():
    drawn = projective_shift(PolynomialConnection(_frame(3, 1), _HAND_G), _HAND_PHI)
    points = np.array([[0.5, -0.25, 0.75], [1e200, 1e200, 1.0], [1e300, -1e300, 1e300], [1.0, 0.0, -1.0]])
    G, failures = drawn.christoffel_many(points)
    H, tree_failures = drawn.connection().christoffel_many(points)
    assert sorted(failures) == sorted(tree_failures) == [1, 2]
    assert all(isinstance(e, DomainError) for e in failures.values())
    assert G[[0, 3]].tobytes() == H[[0, 3]].tobytes()


def _walked_connections(frame, rng, count):
    """`count` random connections on `frame` read by one walk, with its
    `Walked`."""
    with WordStream(rng) as stream:
        walked = stream.walk([(connection_draw(frame),)] * count)
    return walked, [walked.connection(0, i, frame) for i in range(count)]


def test_the_coefficient_form_fails_with_the_trees_error_at_an_overflow_point():
    f = _frame(2, 1)
    point = np.array([1e200, 1e200])
    walked, drawn = _walked_connections(f, spawn_rng(0, 1), 3)
    assert drawn[0] == draw_connection(f, spawn_rng(0, 1))
    with pytest.raises(DomainError) as raised:
        drawn[0].connection().christoffel_at(point)
    message = str(raised.value)
    assert message == "intermediate value is not finite"
    with pytest.raises(DomainError, match=f"^{message}$"):
        drawn[0].christoffel_at(point)
    points = np.array([[0.5, -0.25], point, [1.0, 0.0]])
    for g in drawn:
        failures, tree_failures = g.christoffel_many(points)[1], g.connection().christoffel_many(points)[1]
        assert {i: str(e) for i, e in failures.items()} == {i: str(e) for i, e in tree_failures.items()}
    assert {i: str(e) for i, e in drawn[0].christoffel_many(points)[1].items()} == {1: message}
    # the stacked evaluator, connection r at points[r]
    G, failures = christoffel_stack(f, walked.stacked_terms(0, np.arange(3)), points)
    assert {i: str(e) for i, e in failures.items()} == {1: message}
    for r in (0, 2):
        assert G[r].tobytes() == drawn[r].christoffel_at(points[r]).tobytes()
    with pytest.raises(DomainError, match=f"^{message}$"):
        acceptance._stack(f, walked.stacked_terms(0, np.arange(3)), points)


def _stacked_as_each(f, connections, points):
    """The stack of the connections, each at every one of the points, and
    at one point each, gives the bits of each connection's
    `christoffel_at` and of its trees'."""
    terms = polynomial_terms(connections)
    G, failures = christoffel_stack(f, terms, np.broadcast_to(points, (len(connections),) + points.shape))
    assert failures == {} and G.flags.c_contiguous and G.shape == (len(connections), len(points)) + (f.dim,) * 3
    for g, rows in zip(connections, G):
        trees = g.connection()
        for point, row in zip(points, rows):
            assert row.tobytes() == g.christoffel_at(point).tobytes() == trees.christoffel_at(point).tobytes()
    H, failures = christoffel_stack(f, terms, points[:len(connections)])
    assert failures == {} and H.tobytes() == G[np.arange(len(H)), np.arange(len(H))].tobytes()
    return G


def test_the_stack_takes_a_nested_sum_as_one_more_term_of_its_entry():
    f = _frame(3, 1)
    shifted = projective_shift(PolynomialConnection(f, _HAND_G), _HAND_PHI)
    # nested parts of 2 and of 3 terms; an entry with only a nested part;
    # an entry whose terms cancel
    assert {len(t) for t in shifted.subtracted.values()} == {2, 3}
    assert shifted.entries[(3, 3, 3)] == {} and shifted.entries[(1, 1, 1)] == {2: 0}
    # beside a connection with no nested part, and one with nothing else
    connections = [shifted, PolynomialConnection(f, _HAND_G), projective_shift(PolynomialConnection(f, {}), _HAND_PHI)]
    G = _stacked_as_each(f, connections, _coefficient_points(3, 1, count=20))
    # the zero coordinates give products of -0.0: one stands as an entry
    assert (np.signbit(G) & (G == 0.0)).any()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.sampled_from(_COEFFICIENT_FRAMES))
def test_the_stack_gives_the_bits_of_shifted_random_connections(seed, f):
    l, n = f.dim, f.split
    rng = spawn_rng(seed, 31)
    connections = []
    for _ in range(3):
        g, phi = draw_connection(f, rng), draw_polynomials(f.names, rng, l)
        connections += [projective_shift(g, phi), grass_shift(g, n, phi[:n], phi[n:] if n == 1 else None)]
    _stacked_as_each(f, connections, _coefficient_points(l, seed, count=4))


@pytest.mark.parametrize("length", [2, 4])
def test_points_of_another_length_raise_the_trees_error(length):
    f = _frame(3, 1)
    g = projective_shift(draw_connection(f, spawn_rng(31)), _HAND_PHI)
    point = np.full(length, 0.5)
    with pytest.raises(DimensionMismatchError) as raised:
        g.connection().christoffel_at(point)
    assert str(raised.value) == f"point of length {length} for frame of dimension 3"
    terms = polynomial_terms([g])
    for evaluate in (g.christoffel_at, lambda p: g.christoffel_many(p[None]),
                     lambda p: christoffel_stack(f, terms, p[None]), lambda p: christoffel_stack(f, terms, p[None, None])):
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(str(raised.value))}$"):
            evaluate(point)


def test_the_stack_reports_the_trees_error_of_a_nested_sum_that_is_not_finite():
    f = _frame(3, 1)
    # only the nested part of (3, 3, 3), -2Φ_3, has products of two coordinates
    shifted = projective_shift(PolynomialConnection(f, {}), _HAND_PHI)
    assert (3, 3, 3) in shifted.subtracted and not any(i > 3 for t in shifted.entries.values() for i in t)
    points = np.array([[0.5, -0.25, 0.75], [1e200, 1e200, 1e200], [1.0, 0.0, -1.0]])
    with pytest.raises(DomainError) as raised:
        shifted.connection().christoffel_at(points[1])
    message = str(raised.value)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        shifted.christoffel_at(points[1])
    G, failures = christoffel_stack(f, polynomial_terms([shifted] * 3), points)
    assert {i: str(e) for i, e in failures.items()} == {1: message}
    H, failures = christoffel_stack(f, polynomial_terms([shifted]), points[None])
    assert {i: str(e) for i, e in failures.items()} == {(0, 1): message}
    for r in (0, 2):
        assert G[r].tobytes() == H[0, r].tobytes() == shifted.christoffel_at(points[r]).tobytes()


# criterion 3 stacks the g's and the shifted connections of each l apart;
# criteria 2, 4 and 10 make one stack per dimension case
@pytest.mark.parametrize("cid, stacks", [(2, 4), (3, 4), (4, 4), (10, 4)])
def test_criteria_walk_their_stream_once_and_evaluate_their_connections_by_the_stack_alone(monkeypatch, cid, stacks):
    calls, spawned = [], []
    for name in ("christoffel_many", "christoffel_at"):
        method = getattr(PolynomialConnection, name)
        monkeypatch.setattr(PolynomialConnection, name,
                            lambda self, *args, _method=method, _name=name: calls.append(_name) or _method(self, *args))
    stack, walk = acceptance.christoffel_stack, WordStream.walk
    monkeypatch.setattr(acceptance, "christoffel_stack", lambda *args: calls.append("stack") or stack(*args))
    monkeypatch.setattr(WordStream, "walk", lambda self, layouts: calls.append(self._bit_generator) or walk(self, layouts))
    monkeypatch.setattr(acceptance, "spawn_rng", lambda *args: spawned.append((args, spawn_rng(*args))) or spawned[-1][1])
    assert getattr(acceptance, f"criterion_{cid}")(AcceptanceConfig(seed=0)).passed
    # one walk in all, of stream cid: no one-sample draw of a connection
    # or of polynomials is left, in the criterion or in the library
    [stream] = [rng for args, rng in spawned if args == (0, cid)]
    assert [c for c in calls if not isinstance(c, str)] == [stream.bit_generator]
    assert not any(hasattr(sampling, name) for name in ("draw_connection", "draw_polynomials", "random_connection"))
    assert [c for c in calls if isinstance(c, str)] == ["stack"] * stacks


def test_criterion_7_walks_its_stream_once_and_evaluates_its_checks_by_the_stack(monkeypatch):
    calls, spawned = [], {}
    for name in ("christoffel_many", "christoffel_at"):
        method = getattr(PolynomialConnection, name)
        monkeypatch.setattr(PolynomialConnection, name,
                            lambda self, *args, _method=method, _name=name: calls.append(_name) or _method(self, *args))
    stack, walk = acceptance.christoffel_stack, WordStream.walk
    monkeypatch.setattr(acceptance, "christoffel_stack", lambda *args: calls.append("stack") or stack(*args))
    monkeypatch.setattr(WordStream, "walk", lambda self, layouts: calls.append(self._bit_generator) or walk(self, layouts))
    for module in (symmetry, acceptance):
        monkeypatch.setattr(module, "affine_symmetry_check", lambda *args, **kwargs: calls.append("affine check"),
                            raising=False)
    monkeypatch.setattr(acceptance, "spawn_rng",
                        lambda *args: spawned.setdefault(args, spawn_rng(*args)) if args[1] == 7 else spawn_rng(*args))
    assert acceptance.criterion_7(AcceptanceConfig(seed=0)).passed
    # one walk of stream 7, then one stack of the 5 checks of each dimension
    # case; the orbit check evaluates its g by `christoffel_many`
    assert calls.count(spawned[(0, 7)].bit_generator) == 1
    assert [c for c in calls if isinstance(c, str)] == ["stack"] * 4 + ["christoffel_many"]


@pytest.mark.parametrize("cid", [1, 2, 3, 4, 5, 6, 7, 10])
def test_criteria_raise_the_trees_error_where_a_stacked_value_is_not_finite(monkeypatch, cid):
    """As a per-point `christoffel_at` raised it before the stacks."""
    stack = acceptance.christoffel_stack
    monkeypatch.setattr(acceptance, "christoffel_stack", lambda f, terms, points: stack(f, terms, points * 1e200))
    with pytest.raises(DomainError, match="^intermediate value is not finite$"):
        getattr(acceptance, f"criterion_{cid}")(AcceptanceConfig(seed=0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.sampled_from(_COEFFICIENT_FRAMES + [_frame(11, 1)]))
def test_the_stacked_evaluator_gives_the_bits_of_each_connection_at_its_point(seed, f):
    """Rows with zero and negative zero coordinates, entries whose terms
    cancel, and samples taken out of order."""
    points = _coefficient_points(f.dim, seed, count=10)
    walked, drawn = _walked_connections(f, spawn_rng(seed, 2), len(points))
    G, failures = christoffel_stack(f, walked.stacked_terms(0, np.arange(len(points))), points)
    assert failures == {} and G.flags.c_contiguous and G.shape == (len(points),) + (f.dim,) * 3
    for g, point, row in zip(drawn, points, G):
        assert row.tobytes() == g.christoffel_at(point).tobytes() == g.connection().christoffel_at(point).tobytes()
    order = np.arange(len(points))[::-2]
    H, _ = christoffel_stack(f, walked.stacked_terms(0, order), points[order])
    assert H.tobytes() == G[order].tobytes()


def test_the_numeric_connections_share_one_frame_check():
    f, other = _frame(3, 1), CoordinateFrame(("a", "b", "c"), 1)
    drawn = draw_connection(f, spawn_rng(31))
    for g1, g2 in ((drawn, draw_connection(other, spawn_rng(31))), (drawn.connection(), Connection.zero(other))):
        for check in (lambda: pi_deviation(g1, g2, spawn_rng(0)), lambda: invariants_match(g1, g2, 1, spawn_rng(0)),
                      lambda: extension_deviation(g1, g2, 1)):
            with pytest.raises(FrameMismatchError, match="^connections live on different frames$"):
                check()


# ---------------------------------------------------------------------------
# criteria 1, 2, 3, 4, 5, 6, 7, 9 and 10 against their per-sample or tree oracles


_SELFTEST_SEEDS = (0, 1199949627, 40807560, 2134822917, 1431460730, 508547399)


def _deviations(monkeypatch, cid, seed):
    """The deviation list that criterion `cid` hands to `_result`."""
    recorded = []
    result = acceptance._result

    def recording(cid, title, deviations, *args, **kwargs):
        recorded.append(list(deviations))
        return result(cid, title, recorded[-1], *args, **kwargs)

    monkeypatch.setattr(acceptance, "_result", recording)
    getattr(acceptance, f"criterion_{cid}")(AcceptanceConfig(seed=seed))
    return [repr(float(d)) for d in recorded[0]]


# the oracles draw their connections as trees (`random_connection`) and
# evaluate them with `christoffel_at`; the criteria use the coefficient form
_ORACLE_SEEDS = _SELFTEST_SEEDS + (11, 2026)


def _spawned(monkeypatch, module):
    """Record the generators that `module` spawns."""
    made = []

    def spawning(*args):
        made.append(spawn_rng(*args))
        return made[-1]

    monkeypatch.setattr(module, "spawn_rng", spawning)
    return made


@pytest.mark.parametrize("cid, seeds", [(1, _ORACLE_SEEDS), (5, _ORACLE_SEEDS), (6, _ORACLE_SEEDS),
                                        (9, (0,)),     # criterion 9 draws nothing
                                        (2, _ORACLE_SEEDS), (3, _ORACLE_SEEDS), (4, _ORACLE_SEEDS),
                                        (7, _ORACLE_SEEDS), (10, _ORACLE_SEEDS)])
def test_batched_criteria_equal_their_per_sample_oracles(monkeypatch, cid, seeds):
    oracle = getattr(conftest, f"criterion_{cid}_oracle")
    batched, one_by_one = _spawned(monkeypatch, acceptance), _spawned(monkeypatch, conftest)
    for seed in seeds:
        assert _deviations(monkeypatch, cid, seed) == [repr(float(d)) for d in oracle(seed)]
        # and each generator ends in the same state
        assert [repr(r.bit_generator.state) for r in batched] == [repr(r.bit_generator.state) for r in one_by_one]


def test_criterion_7_equals_its_per_sample_oracle(monkeypatch):
    """Its deviations by their bits, and its result, whose verdict also
    needs the non-affine counterexample."""
    recorded, result = [], acceptance._result
    monkeypatch.setattr(acceptance, "_result", lambda cid, title, deviations, *args:
                        recorded.append(list(deviations)) or result(cid, title, recorded[-1], *args))
    x_frame = CoordinateFrame(("x1",), 1)
    for seed in _ORACLE_SEEDS:
        got = acceptance.criterion_7(AcceptanceConfig(seed=seed))
        deviations = conftest.criterion_7_oracle(seed)
        assert same_bits(recorded[-1], deviations)
        counter = reparam_symmetry_check_oracle(Connection.zero(frame(2)), Connection.zero(x_frame),
                                                [parse("x1^3 + x1", x_frame)], x_frame, samples=15, seed=seed)
        detected = not counter.passed and counter.worst_residual > 1e-3
        # the orbit check's three deviations end the list
        orbit = max(deviations[-3:-1]) <= 1e-12 and deviations[-1] <= 1e-10
        worst_deviation = worst(deviations)
        assert got == acceptance.CriterionResult(7, got.title, worst_deviation <= 1e-10 and orbit and detected,
                                                 worst_deviation, 1e-10)


def _through(monkeypatch, stream, cid, seed):
    """The deviations of criterion `cid` at `seed` with its generator opened
    through `stream`, and the end state of that generator."""
    monkeypatch.setattr(acceptance, "WordStream", stream)
    made = _spawned(monkeypatch, acceptance)
    return _deviations(monkeypatch, cid, seed), [repr(r.bit_generator.state) for r in made]


@pytest.mark.parametrize("cid", (1, 2, 3, 4, 5, 6, 7, 10))
def test_criteria_read_the_word_stream_as_the_generator(monkeypatch, cid):
    for seed in _ORACLE_SEEDS:
        assert _through(monkeypatch, WordStream, cid, seed) == _through(monkeypatch, GeneratorStream, cid, seed)


def test_a_stream_that_ignores_the_buffered_half_fails_the_criteria_test(monkeypatch):
    bare = _through(monkeypatch, GeneratorStream, 1, 0)
    assert _through(monkeypatch, WordStream, 1, 0) == bare
    assert _through(monkeypatch, ScalarWordStream, 1, 0) == bare
    assert _through(monkeypatch, HalfIgnoringStream, 1, 0) != bare
