"""The one redraw loop, `errors.draw_regular`, the single draws built on
it, the random polynomials checked against their `simplify` oracle, and
the coefficient form of a random connection checked against its trees."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetgeo import errors
from jetgeo.acceptance import _DIM_CASES, _frame, _theta_frame
from jetgeo.connections import Connection
from jetgeo.errors import DomainError, SingularJacobianError, draw_regular, require_finite
from jetgeo.expr import CoordinateFrame, Mul, Sym, parse, simplify, to_text
from jetgeo.sampling import (
    PolynomialConnection,
    _monomial_cores,
    draw_connection,
    random_connection,
    random_point,
    random_polynomial,
    spawn_rng,
)

from conftest import random_connection_oracle, random_polynomial_oracle

# 11 coordinates put u10 and u11 between u1 and u2 in `_key` order, away
# from their place in the draw order; x names are the parameter frames'
NAME_FRAMES = [tuple(f"u{i}" for i in range(1, l + 1)) for l in (1, 2, 3, 11)] + [("x1",), ("x1", "x2")]


def counting_draw(fails, error=DomainError):
    """draw() that raises `error` on the calls whose number satisfies
    `fails` and otherwise returns the call number; draw.calls counts
    the calls."""

    def draw():
        draw.calls += 1
        if fails(draw.calls):
            raise error("failed draw")
        return draw.calls

    draw.calls = 0
    return draw


def test_draw_regular_counts_redrawn_draws():
    results, redrawn = draw_regular(counting_draw(lambda k: k % 3 == 0), 5)
    assert results == [1, 2, 4, 5, 7] and redrawn == 2
    results, redrawn = draw_regular(counting_draw(lambda k: k % 2 == 0, SingularJacobianError), 3)
    assert results == [1, 3, 5] and redrawn == 2
    assert draw_regular(counting_draw(lambda k: True), 0) == ([], 0)


def test_draw_regular_gives_up_after_its_budget():
    budget = errors._REDRAWS_PER_SAMPLE
    draw = counting_draw(lambda k: True)
    with pytest.raises(DomainError, match=f"could not sample: {4 * budget} draws failed and 0 of 4 succeeded"):
        draw_regular(draw, 4)
    assert draw.calls == 4 * budget
    assert draw_regular(counting_draw(lambda k: k < budget), 1) == ([budget], budget - 1)
    with pytest.raises(DomainError, match="could not sample"):
        draw_regular(counting_draw(lambda k: k <= budget), 1)


def test_draw_regular_propagates_other_errors():
    with pytest.raises(ZeroDivisionError):
        draw_regular(lambda: 1 / 0, 3)
    with pytest.raises(errors.DimensionMismatchError):
        draw_regular(counting_draw(lambda k: k == 2, errors.DimensionMismatchError), 3)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_deviation_is_redrawn_and_counted(value):
    values = iter([0.5, value, 0.25])

    def draw():
        return require_finite(next(values), "test deviation")

    assert draw_regular(draw, 2) == ([0.5, 0.25], 1)


def test_draws_raise_no_numpy_warnings(recwarn):
    def draw():
        big = np.array([1e308, -1e308])
        return float(np.abs(big * 10 - big * 10).max())

    assert np.isnan(draw_regular(draw, 1)[0][0])
    assert len(recwarn) == 0


def test_random_point_is_one_draw():
    frame = CoordinateFrame(("u1", "u2"), 1)
    g = Connection(frame, {(1, 1, 2): parse("sqrt(u1)", frame)})
    rng = spawn_rng(4)
    outcomes = []
    for _ in range(20):
        try:
            outcomes.append(random_point(g, rng)[0] >= 0.0)
        except DomainError:
            outcomes.append(None)
    assert True in outcomes and None in outcomes and False not in outcomes


def test_random_point_avoids_declared_singular_points():
    frame = CoordinateFrame(("u1", "u2"), 1)
    point = spawn_rng(6).uniform(-1.0, 1.0, 2)
    g = Connection(frame, {}, singular_points=(tuple(point),))
    with pytest.raises(DomainError, match="singular point"):
        random_point(g, spawn_rng(6))
    assert np.array_equal(random_point(Connection(frame, {}), spawn_rng(6)), point)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.sampled_from(NAME_FRAMES))
def test_random_polynomial_is_the_simplified_sum_of_its_draws(seed, names):
    rng, oracle_rng = spawn_rng(seed), spawn_rng(seed)
    for _ in range(4):
        p = random_polynomial(names, rng)
        q = random_polynomial_oracle(names, oracle_rng)
        assert p == q and to_text(p) == to_text(q)
        assert simplify(p) is p
    assert rng.random() == oracle_rng.random()


# the acceptance criteria's frames, and 11 coordinates as above
CONNECTION_FRAMES = ([_frame(n + m, n) for n, m in _DIM_CASES] + [_theta_frame(1), _theta_frame(2)]
                     + [_frame(11, 1)])


@pytest.mark.parametrize("frame", CONNECTION_FRAMES, ids=lambda f: f"{f.names[0][0]}{f.dim}-split{f.split}")
def test_random_connection_matches_its_oracle(frame):
    rng, oracle_rng = spawn_rng(frame.dim, frame.split), spawn_rng(frame.dim, frame.split)
    for _ in range(3):
        g = random_connection(frame, rng)
        h = random_connection_oracle(frame, oracle_rng)
        assert g == h and list(g.christoffel) == list(h.christoffel)
        assert all(to_text(g.christoffel[k]) == to_text(h.christoffel[k]) for k in g.christoffel)
    assert rng.random() == oracle_rng.random()


def same_array(G, H):
    return G.shape == H.shape and G.tobytes() == H.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.sampled_from(CONNECTION_FRAMES))
def test_drawn_coefficients_build_the_oracle_trees_and_evaluate_to_their_bits(seed, frame):
    rng, oracle_rng = spawn_rng(seed), spawn_rng(seed)
    for _ in range(2):
        drawn = draw_connection(frame, rng)
        g = drawn.connection()
        h = random_connection_oracle(frame, oracle_rng)
        assert g.christoffel == h.christoffel and list(g.christoffel) == list(h.christoffel)
        for point in spawn_rng(seed, 1).uniform(-1.0, 1.0, (3, frame.dim)):
            assert same_array(drawn.christoffel_at(point), h.christoffel_at(point))
    assert rng.random() == oracle_rng.random()


# hand-made entries on 11 coordinates, by monomial index: 0 is the constant,
# 1..11 are u1..u11, and the products follow
NAMES_11 = tuple(f"u{i}" for i in range(1, 12))
U10_U2 = _monomial_cores(NAMES_11).index(Mul((Sym("u10"), Sym("u2"))))
U1_U3 = _monomial_cores(NAMES_11).index(Mul((Sym("u1"), Sym("u3"))))
HAND_MADE = {
    (1, 1, 1): {4: 0},                          # cancels to zero: no stored entry
    (1, 2, 1): {4: 0, 0: 250},                  # one term cancels, the constant stays
    (1, 2, 2): {1: 1000},                       # a bare core
    (2, 3, 1): {U1_U3: -1000},                  # coefficient -1
    (2, 2, 3): {0: -417},                       # only a constant
    (3, 3, 3): {0: 3, 2: -999, U1_U3: 731},     # three terms
    (2, 10, 4): {U10_U2: 337},                  # a core whose factors are not in index order
    (5, 6, 7): {U10_U2: 337, 0: -5},            # two terms
}


def test_hand_made_coefficients_evaluate_to_the_bits_of_their_trees():
    drawn = PolynomialConnection(_frame(11, 1), HAND_MADE)
    g = drawn.connection()
    assert (1, 1, 1) not in g.christoffel and len(g.christoffel) == len(HAND_MADE) - 1
    assert to_text(g.christoffel[(2, 10, 4)]) == "337/1000*u10*u2"
    points = spawn_rng(17).uniform(-1.0, 1.0, (20, 11))
    for point in points:
        G = drawn.christoffel_at(point)
        assert same_array(G, g.christoffel_at(point))
        assert math.copysign(1.0, G[0, 0, 0]) == 1.0
    # the points tell the factor order and fsum from their alternatives
    xs = points.tolist()
    assert any((0.337 * x[9]) * x[1] != (0.337 * x[1]) * x[9] for x in xs)
    assert any(sum(t) != math.fsum(t) for t in ([0.003, -0.999 * x[1], (0.731 * x[0]) * x[2]] for x in xs))
