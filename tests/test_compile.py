"""compile_table against its oracle, the tree interpreter `evaluate`:
bit-identical floats, and the same first exception with the same message;
and `expr.Table`, which interprets first and compiles later."""
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetgeo import expr
from jetgeo.acceptance import sphere_chart_connection
from jetgeo.connections import Connection
from jetgeo.errors import DimensionMismatchError, DomainError, MissingSymbolError
from jetgeo.expr import (
    Add, Const, CoordinateFrame, Div, Func, Mul, Sym, Table, compile_table, differentiate, evaluate, parse,
)
from jetgeo.jets import ParamMap
from jetgeo.sampling import random_connection, spawn_rng
from jetgeo.symmetry import prolong_point_map

from conftest import TREE_NAMES, sphere_chart, trees
from test_expr import _CORPUS_NAMES, _random_expression


def _outcome(fn):
    """Results as exact bit patterns, or the exception's type and text."""
    try:
        return tuple(v.hex() for v in fn())
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


def assert_same(table, names, point):
    env = dict(zip(names, point))
    interpreted = _outcome(lambda: [evaluate(e, env) for e in table])
    compiled = _outcome(lambda: compile_table(table, names)(*point))
    assert compiled == interpreted, [expr.to_text(e) for e in table]
    return interpreted


def test_corpus_tables_bit_identical():
    rng = np.random.default_rng(11)
    for _ in range(300):
        table = [_random_expression(rng, 3) for _ in range(int(rng.integers(1, 6)))]
        for _ in range(3):
            assert_same(table, _CORPUS_NAMES, rng.uniform(-2, 2, len(_CORPUS_NAMES)))


def test_random_connection_tables_bit_identical():
    for seed in range(12):
        rng = spawn_rng(seed)
        l = 2 + seed % 4
        g = random_connection(CoordinateFrame(tuple(f"u{i}" for i in range(1, l + 1)), 1), rng)
        for _ in range(5):
            assert_same(list(g.christoffel.values()), g.frame.names, rng.uniform(-1, 1, l))


def test_sphere_charts_bit_identical(sphere_connection):
    rng = np.random.default_rng(5)
    for g in (sphere_chart_connection(), sphere_connection, sphere_chart(5), sphere_chart(6)):
        for _ in range(20):
            point = rng.uniform(-3, 3, g.dim)
            assert_same(list(g.christoffel.values()), g.frame.names, point)


U = ("u1", "u2")
BIG = Const(Fraction(10) ** 308)


@pytest.mark.parametrize(
    "table, point",
    [
        (["u1 + 1", "sqrt(u1 - 2)"], (1.0, 0.0)),
        (["1/(u1 - u1)"], (0.5, 0.0)),
        (["u2", "exp(1000*u1)"], (1.0, 0.0)),
        (["(u1 - u1)^(-1)"], (0.5, 0.0)),
        (["(10^200*u1)*(10^200*u1) - 1"], (1.0, 0.0)),
        (["(10^200*u1)^2"], (1.0, 0.0)),
        (["u1*u2"], (float("inf"), 1.0)),
        (["u1", "u2"], (1.0, float("nan"))),
        (["sqrt(u1)"], (float("inf"), 0.0)),
        (["1/(u1 - u1)", "sqrt(u1 - 2)"], (1.0, 0.0)),
        (["sqrt(u1 - 2)", "1/(u1 - u1)"], (1.0, 0.0)),
        (["u2/u1 + sqrt(u1) - 1/u2", "u1^(-3)"], (-0.0, 0.0)),
        (["sqrt(u1 - 2)/(u1 - u1)"], (1.0, 0.0)),
        (["1/(u1 + u2)"], (float("inf"), 1.0)),
        (["10^308*u1 + 10^308*u2 + 10^308"], (0.9, 0.9)),
        (["u1 + u2"], (float("inf"), float("-inf"))),
        (["sin(u1)"], (float("inf"), 0.0)),
        (["u2 + cos(u1)"], (float("-inf"), 1.0)),
        # the ValueError of fsum on opposite infinities comes after its last term
        (["u1 + u2 + sqrt(u1 - 2)"], (float("inf"), float("-inf"))),
    ],
)
def test_domain_edges_raise_the_same_error(table, point):
    assert assert_same([parse(t, U) for t in table], U, point)[0] is DomainError


@pytest.mark.parametrize(
    "table, interpreted",
    [
        # the running total of fsum overflows before the third term raises
        ([Add((Mul((BIG, Sym("u1"))), Mul((BIG, Sym("u1"))), parse("1/(u1 - u1)", U)))], False),
        ([Add((BIG, BIG, parse("sqrt(-u1)", U)))], False),
        ([Add((BIG, BIG, Mul((Sym("u1"), Add((BIG, BIG, Sym("w")))))))], True),
        ([Add((BIG, BIG, Func("sin", Sym("u1"))))], False),
        ([Add((BIG, BIG, Add((Sym("u1"), Sym("u2")))))], False),
        ([Const(Fraction(10) ** 400)], True),
        ([Sym("u1"), Add((Sym("w"), Func("sqrt", Sym("u2"))))], True),
        ([Func("tan", Sym("u1"))], True),
    ],
    ids=[f"table{i}" for i in range(8)],
)
def test_interpreter_errors_outside_domain_error_match(table, interpreted):
    # overflow is a DomainError; only a missing symbol or an unknown function is not
    for point in ((1.0, -1.0), (1.0, 2.0), (float("inf"), float("-inf"))):
        assert assert_same(table, U, point)[0] in (DomainError, MissingSymbolError, TypeError)
    # a constant beyond float range, an unassigned symbol or an unknown function
    # leaves no float to compile, and the table is interpreted at every point
    assert (compile_table(table, U).__name__ == "interpreted") is interpreted


def test_shared_subtrees_get_one_local():
    one = [parse("u1/(1 + u1^2 + u2^2) + sqrt(u2)", U)]
    assert compile_table(one * 10, U).__code__.co_nlocals == compile_table(one, U).__code__.co_nlocals


def test_christoffel_at_compiles_on_third_call(monkeypatch):
    g = sphere_chart(3)
    point = np.array([0.1, -0.4, 0.25])
    calls = []
    monkeypatch.setattr(expr, "evaluate", lambda e, env: calls.append(e) or evaluate(e, env))
    results = [g.christoffel_at(point) for _ in range(expr._INTERPRETED_CALLS + 3)]
    assert len(calls) == expr._INTERPRETED_CALLS * len(g.christoffel)
    for r in results:
        assert r.shape == (3, 3, 3) and r.tobytes() == results[0].tobytes()


def test_compiled_connection_pickles():
    g = sphere_chart(2)
    results = [g.christoffel_at([0.3, 0.1]) for _ in range(expr._INTERPRETED_CALLS + 1)]
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy.christoffel_at([0.3, 0.1]).tobytes() == results[-1].tobytes()


def test_christoffel_at_compiled_domain_error_matches():
    g = Connection(CoordinateFrame(U, 1), {(1, 1, 1): parse("1/u1", U), (1, 2, 2): parse("sqrt(u2)", U)})
    for _ in range(expr._INTERPRETED_CALLS + 1):
        g.christoffel_at([1.0, 1.0])
    with pytest.raises(DomainError, match="division by zero"):
        g.christoffel_at([0.0, -1.0])
    with pytest.raises(DomainError, match="sqrt of negative value -1.0"):
        g.christoffel_at([1.0, -1.0])


# ---------------------------------------------------------------------------
# expr.Table


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


_COORDINATES = st.one_of(
    st.floats(-3, 3),
    st.sampled_from([0.0, -0.0, 1e300, float("inf"), float("-inf"), float("nan")]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(trees(), min_size=1, max_size=4), st.tuples(_COORDINATES, _COORDINATES))
def test_fresh_table_interpreted_calls_match_its_compiled_function(exprs, point):
    table = Table(exprs, TREE_NAMES)
    interpreted = [_outcome(lambda: table(point)) for _ in range(expr._INTERPRETED_CALLS)]
    assert table._compiled is None
    assert interpreted == [_outcome(lambda: table.compiled()(*point))] * expr._INTERPRETED_CALLS


def test_table_interprets_then_compiles(monkeypatch):
    g = sphere_chart(3)
    table = Table(g.christoffel.values(), g.frame.names)
    point = np.array([0.1, -0.4, 0.25])
    evaluated, compiled = [], []
    monkeypatch.setattr(expr, "evaluate", lambda e, env: evaluated.append(e) or evaluate(e, env))
    monkeypatch.setattr(expr, "compile_table", lambda *a: compiled.append(a) or compile_table(*a))
    results = []
    for call in range(1, expr._INTERPRETED_CALLS + 4):
        results.append(table(point))
        assert len(evaluated) == min(call, expr._INTERPRETED_CALLS) * len(table.exprs)
        assert len(compiled) == (call > expr._INTERPRETED_CALLS)
    assert len({_bits(r) for r in results}) == 1


def test_table_checks_the_point_length():
    with pytest.raises(DimensionMismatchError, match="point of length 3 for frame of dimension 2"):
        Table([parse("u1", U)], U)([1.0, 2.0, 3.0])


def test_table_derivative_is_kept_and_holds_the_differentiated_trees():
    table = Table([parse("u1^2*sin(u2)", U), parse("u2/(1 + u1^2)", U)], U)
    first = table.derivative("u1")
    assert table.derivative("u1") is first and table.derivative("u2") is not first
    assert first.exprs == tuple(differentiate(e, "u1") for e in table.exprs)
    assert first.derivative("u2").exprs == tuple(
        differentiate(differentiate(e, "u1"), "u2") for e in table.exprs
    )


def test_compiled_table_pickles():
    g = sphere_chart(2)
    table = Table(g.christoffel.values(), g.frame.names)
    results = [table([0.3, 0.1]) for _ in range(expr._INTERPRETED_CALLS + 1)]
    copy = pickle.loads(pickle.dumps(table))
    assert copy.exprs == table.exprs and copy._compiled is None
    for _ in range(expr._INTERPRETED_CALLS + 1):
        assert _bits(copy([0.3, 0.1])) == _bits(results[-1])


def test_param_map_and_jet_map_pickle_after_use():
    x2 = CoordinateFrame(("x1", "x2"), 2)
    s = ParamMap(x2, tuple(parse(t, x2) for t in ("x1*x2^2", "sin(x1) + x2", "exp(x2)/(2 + x1^2)")))
    frame = CoordinateFrame(U, 1)
    jmap = prolong_point_map((parse("u1 + u2^2", U), parse("u2*exp(u1)", U)), frame, 1)
    point = [0.3, -0.2, 0.7]
    for _ in range(expr._INTERPRETED_CALLS + 1):
        before = _bits(s.jacobian_at([0.4, -0.6])), _bits(jmap.apply(point)), _bits(jmap.jacobian_at(point))
    s2, jmap2 = pickle.loads(pickle.dumps((s, jmap)))
    assert s2 == s and jmap2 == jmap
    for _ in range(expr._INTERPRETED_CALLS + 1):
        after = _bits(s2.jacobian_at([0.4, -0.6])), _bits(jmap2.apply(point)), _bits(jmap2.jacobian_at(point))
        assert after == before


@pytest.mark.parametrize("make", [lambda: sphere_chart(2), lambda: sphere_chart(5),
                                  lambda: random_connection(CoordinateFrame(("u1", "u2", "u3", "u4"), 1),
                                                            spawn_rng(3))],
                         ids=["S2", "S5", "random"])
def test_compiled_table_does_not_interpret_at_regular_points(monkeypatch, make):
    g = make()
    table = Table(g.christoffel.values(), g.frame.names)
    points = np.random.default_rng(8).uniform(-1, 1, (20, g.dim))
    expected = [_bits(expr._interpret(table.exprs, table.names, p)) for p in points]
    calls = []
    monkeypatch.setattr(expr, "evaluate", lambda e, env: calls.append(e) or evaluate(e, env))
    assert [_bits(table.compiled()(*p)) for p in points] == expected
    assert calls == []


def test_table_of_five_thousand_subtrees_compiles():
    # 2500 distinct sums and 2500 distinct quotients, and one product of all the quotients
    quotients = [Div(Sym("u1"), Add((Sym("u2"), Const(Fraction(k))))) for k in range(1, 2501)]
    table = quotients + [Mul(tuple(quotients))]
    assert assert_same(table, U, (0.5, 0.25))[0] == (0.5 / 1.25).hex()
    assert assert_same(table, U, (0.5, -7.0)) == (DomainError, "division by zero")
