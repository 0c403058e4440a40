import contextlib
import io
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetgeo
from jetgeo import expr
from jetgeo.acceptance import AcceptanceConfig, criterion_8, criterion_11
from jetgeo.cli import main
from jetgeo.connections import grass_shift, projective_shift
from jetgeo.errors import DomainError, MissingSymbolError, ParseError, UnknownSymbolError
from jetgeo.expr import (
    Add,
    Const,
    CoordinateFrame,
    Div,
    Expression,
    Func,
    Mul,
    Pow,
    Sym,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_text,
)
from jetgeo.sampling import spawn_rng

from conftest import (
    TREE_NAMES,
    deviation_at_random_points,
    differentiate_oracle,
    random_connection,
    random_expressions,
    trees,
)

UV = ("u", "v")


def ev(e, **env):
    return evaluate(e, env)


# ---------------------------------------------------------------------------
# parsing


def test_parse_product_plus_constant():
    e = parse("u1*u2 + 3", ("u1", "u2"))
    assert e == Add((Mul((Sym("u1"), Sym("u2"))), Const(Fraction(3))))


def test_parse_double_caret_is_syntax_error():
    with pytest.raises(ParseError):
        parse("u1^^2", ("u1",))


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        parse("u1 + w", ("u1",))


def test_parse_function_quotient():
    e = parse("sin(u3)/u1", ("u1", "u3"))
    assert ev(e, u3=0.0, u1=2.0) == 0.0


def test_parse_rational_and_decimal_literals():
    assert parse("3/4", ()) == Const(Fraction(3, 4))
    assert parse("-3/4", ()) == Const(Fraction(-3, 4))
    assert parse("0.25", ()) == Const(Fraction(1, 4))


def test_parse_position_reported():
    with pytest.raises(ParseError) as err:
        parse("u + (v", UV)
    assert err.value.position == 6


@pytest.mark.parametrize(
    "text",
    [
        "u*v + 3",
        "u - v - 1/2",
        "-u^2 + sin(v)*cos(u)",
        "sqrt(u^2 + 1)/(v + 2)",
        "exp(u/(v^2 + 1)) - 0.5*u*v",
        "u/(v*u)",
        "(u + v)^3*u",
        "u^(-2) + 2/3*v",
    ],
)
def test_print_parse_round_trip(text):
    e = parse(text, UV)
    assert parse(to_text(e), UV) == e
    s = simplify(e)
    assert parse(to_text(s), UV) == s


@pytest.mark.parametrize("text", ["u + (-1/2)/u", "u*(1/3)", "u + (-1/2*u)/v", "v*(-2/3)*u"])
def test_print_parse_round_trip_of_quotients_and_fractions(text):
    # a quotient with a negative numerator inside a sum, and a fraction
    # after the first factor of a product, keep their parentheses
    e = parse(text, UV)
    assert parse(to_text(e), UV) == e


@settings(max_examples=300, deadline=None)
@given(trees())
def test_printed_trees_parse_back_to_themselves(e):
    # parse(to_text(x)) == x holds for parsed trees; any printed tree is
    # brought into that form by one parse
    names = TREE_NAMES + ("w",)
    parsed = parse(to_text(e), names)
    assert parse(to_text(parsed), names) == parsed


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_polynomial():
    e = parse("u^2 + v", UV)
    assert ev(e, u=2.0, v=1.0) == 5.0


def test_evaluate_division_by_zero():
    e = parse("u/v", UV)
    with pytest.raises(DomainError):
        ev(e, u=1.0, v=0.0)


def test_evaluate_elementary_constants():
    e = parse("exp(0) + cos(0)", ())
    assert ev(e) == 2.0


def test_evaluate_missing_symbol():
    with pytest.raises(MissingSymbolError):
        ev(parse("u + v", UV), u=1.0)


def test_evaluate_negative_sqrt():
    with pytest.raises(DomainError):
        ev(parse("sqrt(u)", UV), u=-1.0, v=0.0)


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_product_rule():
    e = parse("u*v + 3", UV)
    assert differentiate(e, "u") == Sym("v")


def test_derivative_of_constant():
    assert differentiate(parse("7/3", UV), "u") == Const(Fraction(0))


def test_derivative_matches_central_difference():
    e = parse("sin(u)*u^2", UV)
    d = differentiate(e, "u")
    h = 1e-6
    fd = (ev(e, u=1.0 + h, v=0.0) - ev(e, u=1.0 - h, v=0.0)) / (2 * h)
    assert abs(ev(d, u=1.0, v=0.0) - fd) <= 1e-8


def test_derivative_external_constant():
    e = parse("c*u", ("c", "u"))
    assert differentiate(e, "u") == Sym("c")


# ---------------------------------------------------------------------------
# the direct derivative of polynomial normal forms against the general path


def _marks(e):
    """The `_normal` mark of every node of a tree, in preorder."""
    out = [(type(e).__name__, getattr(e, "_normal", False))]
    for child in getattr(e, "terms", ()) + getattr(e, "factors", ()):
        out += _marks(child)
    for name in ("base", "num", "den", "arg"):
        if hasattr(e, name):
            out += _marks(getattr(e, name))
    return out


def _same_derivative(got, e, coord):
    want = differentiate_oracle(e, coord)
    assert repr(got) == repr(want) and got == want
    assert _marks(got) == _marks(want)


def _differentiated(fn, *args):
    """The (tree, coordinate, result, simplify calls) of each
    `differentiate` call that `fn(*args)` makes from outside
    `differentiate` itself; `simplify` calls count recursive ones too."""
    calls, depth, simplified = [], [0], [0]
    original, simplify_original = expr.differentiate, expr.simplify

    def counting(e):
        simplified[0] += 1
        return simplify_original(e)

    def recording(e, coord):
        depth[0] += 1
        before = simplified[0]
        try:
            out = original(e, coord)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            calls.append((e, coord, out, simplified[0] - before))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "differentiate", recording)
        patch.setattr(expr, "simplify", counting)
        fn(*args)
    return calls


_POLY_NAMES = ("u", "v", "w")


@st.composite
def _polynomial_normal_forms(draw):
    """Simplified sums of rational multiples of products of one to three
    symbols, each to a power from 1 to 5, and a constant: a lone constant
    where no term is drawn, and terms that merge or cancel where simplify
    collects them."""
    rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        factors = [Pow(Sym(name), draw(st.integers(1, 5)))
                   for name in draw(st.lists(st.sampled_from(_POLY_NAMES), min_size=1, max_size=3))]
        terms.append(Mul((Const(draw(rational)), *factors)))
    return simplify(Add((*terms, Const(draw(rational)))))


@settings(max_examples=300, deadline=None)
@given(_polynomial_normal_forms())
def test_derivative_of_a_polynomial_normal_form_is_the_general_one_without_simplify(e):
    assert expr._monomials(e) is not None
    for coord in (*_POLY_NAMES, "x"):
        [(_, _, got, simplified)] = _differentiated(lambda: expr.differentiate(e, coord))
        assert simplified == 0
        _same_derivative(got, e, coord)


@pytest.mark.parametrize("seed", [0, 11, 2026, 1199949627, 40807560, 2134822917, 1431460730, 508547399])
def test_criteria_8_and_11_differentiate_as_the_general_path(seed):
    calls = _differentiated(lambda: [fn(AcceptanceConfig(seed=seed)) for fn in (criterion_8, criterion_11)])
    assert calls
    for e, coord, got, _ in calls:
        _same_derivative(got, e, coord)


def test_golden_cubic_map_takes_both_derivative_paths():
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    argv = ["symmetry-check", os.path.join(golden, "s2.json"), "--map", os.path.join(golden, "map_cubic.json"),
            "--samples", "6", "--seed", "4"]
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _differentiated(main, argv)
    direct = sum(simplified == 0 for *_, simplified in calls)
    assert 0 < direct < len(calls)
    for e, coord, got, _ in calls:
        _same_derivative(got, e, coord)


# ---------------------------------------------------------------------------
# randomized oracles

_CORPUS_NAMES = ("u", "v", "w")


def _random_expression(rng, depth):
    """Random tree kept away from domain trouble: denominators and sqrt
    arguments are offset squares."""
    if depth == 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.4:
            return Const(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))))
        return Sym(_CORPUS_NAMES[int(rng.integers(0, len(_CORPUS_NAMES)))])
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return Add((_random_expression(rng, depth - 1), _random_expression(rng, depth - 1)))
    if kind == 1:
        return Mul((_random_expression(rng, depth - 1), _random_expression(rng, depth - 1)))
    if kind == 2:
        return Pow(_random_expression(rng, depth - 1), int(rng.integers(1, 4)))
    if kind == 3:
        safe_den = Add((Const(Fraction(2)), Pow(_random_expression(rng, depth - 1), 2)))
        return Div(_random_expression(rng, depth - 1), safe_den)
    if kind == 4:
        name = ("sin", "cos")[int(rng.integers(0, 2))]
        return Func(name, _random_expression(rng, depth - 1))
    safe_arg = Add((Const(Fraction(1)), Pow(_random_expression(rng, depth - 2 if depth > 1 else 0), 2)))
    return Func("sqrt", safe_arg)


def test_symbolic_derivative_vs_finite_difference_corpus():
    rng = np.random.default_rng(20240817)
    h = 1e-6
    checked = 0
    while checked < 1000:
        e = _random_expression(rng, 3)
        name = _CORPUS_NAMES[int(rng.integers(0, len(_CORPUS_NAMES)))]
        d = differentiate(e, name)
        env = {n: float(x) for n, x in zip(_CORPUS_NAMES, rng.uniform(-1, 1, len(_CORPUS_NAMES)))}
        try:
            up = evaluate(e, {**env, name: env[name] + h})
            dn = evaluate(e, {**env, name: env[name] - h})
            exact = evaluate(d, env)
        except DomainError:
            continue
        fd = (up - dn) / (2 * h)
        scale = max(1.0, abs(exact), abs(fd))
        assert abs(exact - fd) / scale <= 1e-6, to_text(e)
        checked += 1


def test_mixed_partials_commute_on_corpus():
    rng = np.random.default_rng(7)
    for _ in range(200):
        e = _random_expression(rng, 3)
        duv = differentiate(differentiate(e, "u"), "v")
        dvu = differentiate(differentiate(e, "v"), "u")
        if duv == dvu:
            continue
        dev = deviation_at_random_points(duv, dvu, _CORPUS_NAMES, rng, points=6)
        assert dev <= 1e-10, to_text(e)


def test_derivative_linearity_on_corpus():
    rng = np.random.default_rng(99)
    for _ in range(200):
        e1 = _random_expression(rng, 2)
        e2 = _random_expression(rng, 2)
        a = Const(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))))
        b = Const(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))))
        lhs = simplify(differentiate(Add((Mul((a, e1)), Mul((b, e2)))), "u"))
        rhs = simplify(Add((Mul((a, differentiate(e1, "u"))), Mul((b, differentiate(e2, "u"))))))
        if lhs == rhs:
            continue
        dev = deviation_at_random_points(lhs, rhs, _CORPUS_NAMES, rng, points=6)
        assert dev <= 1e-10


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 63 - 1))
def test_simplify_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    e = _random_expression(rng, 3)
    s = simplify(e)
    assert simplify(s) == s


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 63 - 1))
def test_simplify_preserves_value(seed):
    rng = np.random.default_rng(seed)
    e = _random_expression(rng, 3)
    dev = deviation_at_random_points(e, simplify(e), _CORPUS_NAMES, rng, points=6)
    assert dev <= 1e-10


# ---------------------------------------------------------------------------
# the normal-form mark


def _fresh(e):
    """The same tree rebuilt node by node, without normal-form marks."""
    values = []
    for f in fields(e):
        v = getattr(e, f.name)
        if isinstance(v, Expression):
            v = _fresh(v)
        elif isinstance(v, tuple):
            v = tuple(_fresh(x) for x in v)
        values.append(v)
    return type(e)(*values)


def _combinations(a, b):
    """Trees whose operands are the trees a and b."""
    safe_den = Add((Const(Fraction(2)), Pow(b, 2)))
    return [Add((a, b)), Add((a, Mul((Const(Fraction(-3, 2)), b)), a)), Mul((a, b)),
            Mul((b, Add((a, Const(Fraction(1)))))), Div(a, safe_den), Pow(Add((a, b)), 2),
            Func("sin", Mul((a, b))), Func("sqrt", Add((Const(Fraction(1)), Pow(a, 2))))]


def _simplified_by(fn, *args):
    """The (tree, result) of each `simplify` call that `fn(*args)` makes
    from outside `simplify` itself."""
    calls, depth, original = [], [0], expr.simplify

    def recording(e):
        depth[0] += 1
        try:
            out = original(e)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            calls.append((e, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "simplify", recording)
        fn(*args)
    return calls


def _shift_trees(seed):
    """The trees that `projective_shift` and `grass_shift` simplify for a
    random connection and random shift functions, with the results."""
    rng = spawn_rng(seed)
    l = 2 + seed % 3
    n = 1 + seed % 2 if l > 2 else 1
    frame = CoordinateFrame(tuple(f"u{i}" for i in range(1, l + 1)), n)
    g = random_connection(frame, rng)
    phi = random_expressions(frame.names, rng, l)
    return (_simplified_by(projective_shift, g, phi)
            + _simplified_by(grass_shift, g, n, phi[:n], phi[n:] if n == 1 else None))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 63 - 1))
def test_simplify_of_marked_operands_matches_unmarked_oracle(seed):
    rng = np.random.default_rng(seed)
    a = simplify(_random_expression(rng, 3))
    b = simplify(_random_expression(rng, 3))
    simplified = [(tree, simplify(tree)) for tree in _combinations(a, b)]
    # the shifts subtract marked normal sums, whose product terms are marked too
    shifted = _shift_trees(seed)
    assert shifted
    for tree, out in simplified + shifted:
        oracle = simplify(_fresh(tree))
        assert out == oracle
        assert to_text(out) == to_text(oracle)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 63 - 1))
def test_simplify_returns_a_simplified_tree_itself(seed):
    rng = np.random.default_rng(seed)
    s = simplify(_random_expression(rng, 3))
    assert simplify(s) is s
    assert simplify(_fresh(s)) == s


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 63 - 1))
def test_mark_keeps_equality_and_hash(seed):
    rng = np.random.default_rng(seed)
    e = _random_expression(rng, 3)
    s = simplify(e)
    for node in (e, s):
        assert hash(node) == hash(tuple(getattr(node, f.name) for f in fields(node)))
        fresh = _fresh(node)
        assert node == fresh and fresh == node
        assert hash(node) == hash(fresh) and repr(node) == repr(fresh)
        assert {fresh: 1}[node] == 1 and {node: 1}[fresh] == 1


@pytest.mark.parametrize("value", ["u", 3, None, (Sym("u"),)])
def test_simplify_rejects_a_non_expression(value):
    with pytest.raises(TypeError, match="cannot simplify"):
        simplify(value)


_PICKLE_SCRIPT = """
import pickle, sys
from jetgeo.connections import Connection
from jetgeo.expr import CoordinateFrame, parse, simplify

frame = CoordinateFrame(("u", "v"), 1)
trees = [simplify(parse(t, frame)) for t in
         ("u*v + sin(u)", "u/(v^2 + 1)", "exp(u - v)^2", "sqrt(1 + u^2)*cos(v)")]
if sys.argv[1] == "dump":
    table = {t: i for i, t in enumerate(trees)}
    g = Connection(frame, {(1, 1, 2): trees[0], (1, 2, 1): trees[1]})
    g.christoffel_at((0.1, 0.2))
    with open(sys.argv[2], "wb") as fh:
        pickle.dump((trees, table, g), fh)
else:
    with open(sys.argv[2], "rb") as fh:
        loaded, table, g = pickle.load(fh)
    assert [table[t] for t in trees] == [0, 1, 2, 3]
    assert [hash(t) for t in loaded] == [hash(t) for t in trees]
    assert {e: key for key, e in g.christoffel.items()}[trees[1]] == (1, 2, 1)
    assert all(simplify(t) == t for t in loaded)
"""


def test_pickled_nodes_are_found_under_another_hash_seed(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(jetgeo.__file__)))
    path = str(tmp_path / "trees.pickle")
    for seed, mode in (("1", "dump"), ("2", "load")):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _PICKLE_SCRIPT, mode, path], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


def test_collects_identical_monomials():
    e = parse("2*u*v + 3*v*u - u*v", UV)
    assert simplify(e) == Mul((Const(Fraction(4)), Sym("u"), Sym("v")))


def test_deviation_at_random_points_redraws_and_separates():
    rng = np.random.default_rng(0)
    root = parse("sqrt(u) + v", UV)
    assert deviation_at_random_points(root, parse("v + sqrt(u)", UV), UV, rng) <= 1e-12
    assert deviation_at_random_points(parse("u", UV), parse("v", UV), UV, rng) > 1e-3


def test_deviation_at_random_points_keeps_nan(monkeypatch):
    # a NaN at the second of three points; max(0.0, nan) would drop it
    values = iter([0.0, 0.0, np.nan, 0.0, 0.0, 0.0])
    monkeypatch.setattr(jetgeo.expr, "evaluate", lambda e, env: next(values))
    assert np.isnan(deviation_at_random_points(parse("u", UV), parse("v", UV), UV,
                                               np.random.default_rng(0), points=3))


# ---------------------------------------------------------------------------
# frames


def test_frame_validation():
    f = CoordinateFrame(("u1", "u2", "u3"), 1)
    assert f.dim == 3 and f.split == 1
    with pytest.raises(ValueError):
        CoordinateFrame(("u1", "u1"), 1)
    with pytest.raises(ValueError):
        CoordinateFrame(("u1", "u2"), 3)
    with pytest.raises(ValueError):
        CoordinateFrame(("sin", "u2"), 1)
