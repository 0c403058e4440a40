"""The one redraw loop, `errors.draw_regular`, and the single draws built on it."""
import numpy as np
import pytest

from jetgeo import errors
from jetgeo.connections import Connection
from jetgeo.errors import DomainError, SingularJacobianError, draw_regular, require_finite
from jetgeo.expr import CoordinateFrame, parse
from jetgeo.sampling import random_point, spawn_rng


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
