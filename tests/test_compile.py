"""compile_table against its oracle, the tree interpreter `evaluate`:
bit-identical floats, and the same first exception with the same message."""
import pickle
from fractions import Fraction

import numpy as np
import pytest

from jetgeo import connections, expr
from jetgeo.acceptance import sphere_chart_connection
from jetgeo.connections import Connection
from jetgeo.errors import DomainError, MissingSymbolError
from jetgeo.expr import Add, Const, CoordinateFrame, Func, Mul, Sym, compile_table, evaluate, parse
from jetgeo.sampling import random_connection, spawn_rng

from conftest import sphere_chart
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
    "table",
    [
        # the running total of fsum overflows before the third term raises
        [Add((Mul((BIG, Sym("u1"))), Mul((BIG, Sym("u1"))), parse("1/(u1 - u1)", U)))],
        [Add((BIG, BIG, parse("sqrt(-u1)", U)))],
        [Add((BIG, BIG, Mul((Sym("u1"), Add((BIG, BIG, Sym("w")))))))],
        [Add((BIG, BIG, Func("sin", Sym("u1"))))],
        [Add((BIG, BIG, Add((Sym("u1"), Sym("u2")))))],
        [Const(Fraction(10) ** 400)],
        [Sym("u1"), Add((Sym("w"), Func("sqrt", Sym("u2"))))],
        [Func("tan", Sym("u1"))],
    ],
)
def test_interpreter_errors_outside_domain_error_match(table):
    # overflow is a DomainError; only a missing symbol or an unknown function is not
    for point in ((1.0, -1.0), (1.0, 2.0), (float("inf"), float("-inf"))):
        assert assert_same(table, U, point)[0] in (DomainError, MissingSymbolError, TypeError)


def test_shared_subtrees_get_one_local():
    one = [parse("u1/(1 + u1^2 + u2^2) + sqrt(u2)", U)]
    assert compile_table(one * 10, U).__code__.co_nlocals == compile_table(one, U).__code__.co_nlocals


def test_christoffel_at_compiles_on_third_call(monkeypatch):
    g = sphere_chart(3)
    point = np.array([0.1, -0.4, 0.25])
    calls = []
    monkeypatch.setattr(expr, "evaluate", lambda e, env: calls.append(e) or evaluate(e, env))
    results = [g.christoffel_at(point) for _ in range(connections._INTERPRETED_CALLS + 3)]
    assert len(calls) == connections._INTERPRETED_CALLS * len(g.christoffel)
    for r in results:
        assert r.shape == (3, 3, 3) and r.tobytes() == results[0].tobytes()


def test_compiled_connection_pickles():
    g = sphere_chart(2)
    results = [g.christoffel_at([0.3, 0.1]) for _ in range(connections._INTERPRETED_CALLS + 1)]
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy.christoffel_at([0.3, 0.1]).tobytes() == results[-1].tobytes()


def test_christoffel_at_compiled_domain_error_matches():
    g = Connection(CoordinateFrame(U, 1), {(1, 1, 1): parse("1/u1", U), (1, 2, 2): parse("sqrt(u2)", U)})
    for _ in range(connections._INTERPRETED_CALLS + 1):
        g.christoffel_at([1.0, 1.0])
    with pytest.raises(DomainError, match="division by zero"):
        g.christoffel_at([0.0, -1.0])
    with pytest.raises(DomainError, match="sqrt of negative value -1.0"):
        g.christoffel_at([1.0, -1.0])
