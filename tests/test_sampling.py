"""The one redraw loop, `errors.draw_regular`, the single draws built on
it, the random polynomials checked against their `simplify` oracle, the
coefficient form of a random connection checked against its trees, the
`WordStream` and its walks checked against the Generator whose raw words
it reads, walks over planted words checked against the scalar reader
of the same words, and the gates' closed-form det and the three-term
sums checked against the `np.linalg.det` and `math.fsum` they stand
for."""
import contextlib
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetgeo import errors, expr, sampling
from jetgeo.acceptance import _DIM_CASES, AcceptanceConfig, _frame, _theta_frame, criterion_3, criterion_5
from jetgeo.connections import Connection
from jetgeo.errors import DomainError, SingularJacobianError, draw_regular, require_finite
from jetgeo.expr import CoordinateFrame, Mul, Sym, parse, simplify, to_text
from jetgeo.sampling import (
    PolynomialConnection,
    Polynomials,
    WordStream,
    _monomial_cores,
    affine_draw,
    connection_draw,
    random_point,
    secjet1_draw,
    spawn_rng,
    subjet1_draw,
)

from conftest import (
    GeneratorStream,
    HalfIgnoringStream,
    ScalarWordStream,
    draw_connection,
    draw_connection_oracle,
    draw_polynomials,
    random_connection,
    random_connection_oracle,
    random_polynomial,
    random_polynomial_oracle,
)

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


# ---------------------------------------------------------------------------
# the word stream against the Generator


# Each step below is a list of calls (method, args).

# a `peek` and a `skip` of as many numbers or fewer, as
# `extension_deviation` looks at its points and takes those it uses
_PEEK_STEPS = st.tuples(st.integers(0, 200), st.integers(0, 200)).map(
    lambda sizes: [("peek", (max(sizes),)), ("skip", (min(sizes),))])

# the scalar calls of the oracle streams: `random`, and uniform shapes
_SCALAR_STEPS = st.one_of(
    st.just(("random", ())),
    st.integers(0, 5).map(lambda k: ("uniform", (-1.0, 1.0, k))),
    st.integers(0, 5).map(lambda k: ("uniform", (-0.3, 2.9, k))),
    st.tuples(st.integers(1, 3), st.integers(1, 2)).map(lambda shape: ("uniform", (-1, 1, shape))),
    st.tuples(st.integers(2, 4), st.integers(1, 2)).map(lambda ln: ("uniform", (-1.0, 1.0, (50, ln[0], ln[1], ln[1])))),
    st.just(("uniform", ())),
).map(lambda call: [call])

# the ranges the samplers draw integers from, one where about one first
# draw in four is rejected, and widths 1 and 2**32
_INTEGER_STEPS = st.one_of(
    st.sampled_from([(1, 4), (-1000, 1001), (0, 3 * 2 ** 30), (7, 8), (-2, -1), (0, 2 ** 32)])
    .map(lambda span: [("integers", span)]),
    st.integers(1, 60).map(lambda size: [("integers", (0, size))]),
)

# walks of samples whose items are random polynomials over the frames'
# names, with and without a fill, and the uniform arrays of the jets and
# affine maps, gated and not
_ITEMS = st.one_of(
    st.tuples(st.sampled_from(NAME_FRAMES), st.integers(0, 12), st.sampled_from([None, 0.6, 0.3]))
    .map(lambda item: Polynomials(*item)),
    st.tuples(st.integers(1, 2), st.integers(1, 2)).map(lambda nm: subjet1_draw(*nm)),
    st.tuples(st.integers(1, 2), st.integers(1, 2)).map(lambda nm: secjet1_draw(nm[0], nm[0] + nm[1])),
    st.integers(1, 2).map(affine_draw),
)
_WALK_STEPS = st.lists(st.lists(_ITEMS, min_size=1, max_size=3).map(tuple), min_size=1, max_size=5).map(
    lambda layouts: [("walk", (layouts,))])

# a step that ends the block by an exception of its own class
_RAISE = ("raise", ())


class _EndsTheBlock(Exception):
    """What the planted ("raise", ()) step raises, and the one exception
    `_stream_matches` expects besides a gate's DomainError."""


def _walked(walked):
    """What a `Walked` read, comparably: per sample and item, the
    polynomials by slot, or the arrays' shapes and bytes."""
    out = []
    for i, layout in enumerate(walked.layouts):
        for j, item in enumerate(layout):
            if isinstance(item, Polynomials):
                out.append(repr(walked.polynomials(j, i)))
            else:
                out.append([(a.shape, a.tobytes()) for a in walked.parts(j, [i])])
    return out


def _replay(rng, calls, out):
    """Append what each of `calls` returns on rng to `out`, comparably: a
    float by its repr, an integer by the repr of its int, an array by its
    shape, dtype and bytes, a walk by `_walked`; ("raise", ()) raises
    `_EndsTheBlock`."""
    for name, args in calls:
        if name == "raise":
            raise _EndsTheBlock("the block ends by an exception")
        value = getattr(rng, name)(*args)
        if isinstance(value, np.ndarray):
            out.append((value.shape, value.dtype.str, value.tobytes()))
        elif name == "walk":
            out.append(_walked(value))
        else:
            out.append(repr(int(value) if name == "integers" else value))


def _stream_matches(stream, calls, seed, buffered=False, chunk=sampling._WORDS_PER_CHUNK, make=spawn_rng):
    """Whether `calls` made in a ``with stream(rng) as s`` block return what
    they return on a Generator with the same seed (through
    `GeneratorStream`, whose walks draw one call at a time), and leave rng
    in that Generator's state, when both start with a buffered high half
    if `buffered`, and the stream reads `chunk` words at a time (and its
    walks' tables hold at least as many).  The generators are
    ``make(seed)``.  The planted step, or a gate that gives up, ends both
    runs and the block with it; any other exception is a failure."""
    rng, oracle = make(seed), make(seed)
    if buffered:
        rng.integers(0, 10), oracle.integers(0, 10)
    want, got = [], []
    with contextlib.suppress(_EndsTheBlock, DomainError):
        _replay(GeneratorStream(oracle), calls, want)
    with pytest.MonkeyPatch.context() as patch, contextlib.suppress(_EndsTheBlock, DomainError):
        patch.setattr(sampling, "_WORDS_PER_CHUNK", chunk)
        with stream(rng) as words:
            _replay(words, calls, got)
    return got == want and repr(rng.bit_generator.state) == repr(oracle.bit_generator.state)


def _stream_property(stream, steps=st.one_of(_PEEK_STEPS, _WALK_STEPS)):
    """The property that `stream` returns what the Generator returns, over
    drawn seeds, steps, starting halves, raising blocks and chunk sizes."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 63 - 1), st.lists(steps, max_size=40), st.booleans(), st.booleans(),
           st.sampled_from([1, 3, 5, sampling._WORDS_PER_CHUNK]))
    def check(seed, steps, buffered, raises, chunk):
        calls = [call for step in steps for call in step]
        calls = calls + [_RAISE, ("peek", (1,))] if raises else calls
        assert _stream_matches(stream, calls, seed, buffered, chunk)

    return check


test_word_stream_returns_what_the_generator_returns = _stream_property(WordStream)
test_scalar_word_stream_returns_what_the_generator_returns = _stream_property(
    ScalarWordStream, st.one_of(_SCALAR_STEPS, _INTEGER_STEPS, _WALK_STEPS))

# criterion 5's layout, whose walks cross chunks with each kind of item
_SECTION_JETS = [(connection_draw(_frame(n + m, n)), connection_draw(_theta_frame(n)), secjet1_draw(n, n + m))
                 for n, m in _DIM_CASES]


def test_word_stream_crosses_chunks_with_every_call():
    walk = ("walk", ([_SECTION_JETS[i % 4] for i in range(60)],))
    peek_skip = lambda size, taken: [("peek", (size,)), ("skip", (taken,))]
    calls = peek_skip(800, 800) * 3 + ([walk] + peek_skip(1, 1)) * 3 + peek_skip(3, 1) * 1500
    for chunk in (2, 3, 5, 7, sampling._WORDS_PER_CHUNK):
        assert _stream_matches(WordStream, calls, 8, False, chunk)
        assert _stream_matches(WordStream, calls, 9, True, chunk)


@pytest.mark.parametrize("chunk", [3, 7, sampling._WORDS_PER_CHUNK])
@pytest.mark.parametrize("buffered", [False, True])
def test_word_stream_peek_and_skip_line_up_with_successive_draws(monkeypatch, chunk, buffered):
    """`peek` gives the numbers of the next ``uniform(-1, 1, size)`` calls
    and `skip` consumes them, across chunk ends and between walks, and the
    generator ends where those calls leave it."""
    monkeypatch.setattr(sampling, "_WORDS_PER_CHUNK", chunk)
    rng, oracle = _generator(23, buffered), _generator(23, buffered)
    # a walk with random connections, and one of gated draws alone
    walks = [[_SECTION_JETS[i % 4] + (secjet1_draw(1, 2),) for i in range(6)],
             [(secjet1_draw(2, 3), affine_draw(1), subjet1_draw(1, 1))] * 9]
    with WordStream(rng) as stream:
        for i, (size, taken) in enumerate(((3, 3), (300, 120), (7, 0), (1000, 1000), (1, 1), (40, 17))):
            peeked = stream.peek(size)
            assert peeked.shape == (size,)
            assert stream.peek(size).tobytes() == peeked.tobytes()
            stream.skip(taken)
            assert peeked[:taken].tobytes() == oracle.uniform(-1.0, 1.0, taken).tobytes()
            walk = walks[i % 2]
            assert _walked(stream.walk(walk)) == _walked(GeneratorStream(oracle).walk(walk))
    assert repr(rng.bit_generator.state) == repr(oracle.bit_generator.state)


def test_a_stream_that_ignores_the_buffered_half_fails_the_stream_test():
    with pytest.raises(AssertionError):
        _stream_property(HalfIgnoringStream, st.one_of(_INTEGER_STEPS, _WALK_STEPS))()
    two_draws = [("integers", (1, 4)), ("integers", (-1000, 1001))]
    assert _stream_matches(ScalarWordStream, two_draws, 5)
    assert not _stream_matches(HalfIgnoringStream, two_draws, 5)
    assert not _stream_matches(HalfIgnoringStream, two_draws[:1], 5, buffered=True)


def test_word_stream_rejects_other_bit_generators_and_wide_ranges():
    with pytest.raises(TypeError, match="Philox, PCG64, PCG64DXSM, SFC64 bit generator, not MT19937"):
        WordStream(np.random.Generator(np.random.MT19937(0)))
    with pytest.raises(ValueError):
        ScalarWordStream(spawn_rng(0)).integers(0, 2 ** 32 + 1)


@pytest.mark.parametrize("kind", [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64])
def test_generators_on_other_half_buffering_bit_generators_walk_through_the_same_words(kind):
    """PCG64 is `default_rng`'s; each follows the rules of Philox's words."""
    f = _frame(3, 1)
    make = lambda seed: np.random.Generator(kind(seed))
    rng, oracle = make(3), make(3)
    for _ in range(20):
        assert draw_connection(f, rng) == draw_connection_oracle(f, oracle)
        assert rng.random() == oracle.random()
    assert repr(rng.bit_generator.state) == repr(oracle.bit_generator.state)
    # through a stream block
    walk = ("walk", ([_SECTION_JETS[i % 4] for i in range(40)],))
    calls = [("peek", (1,)), ("skip", (1,)), walk, ("peek", (6,)), ("skip", (6,)), walk, ("peek", (2,)), ("skip", (1,))]
    scalar = [("random", ()), walk, ("uniform", (-1.0, 1.0, (3, 2))), walk, ("random", ())] + [("integers", (0, 7))] * 3
    for seed in range(5):
        for buffered in (False, True):
            assert _stream_matches(WordStream, calls, seed, buffered, make=make)
            assert _stream_matches(ScalarWordStream, scalar, seed, buffered, make=make)


def test_draws_from_mt19937_or_an_object_without_walk_are_type_errors():
    f = _frame(3, 1)
    rng = np.random.Generator(np.random.MT19937(0))
    state = repr(rng.bit_generator.state)
    with pytest.raises(TypeError, match="not MT19937"):
        draw_connection(f, rng)
    assert repr(rng.bit_generator.state) == state
    with pytest.raises(TypeError, match="from a Generator or a WordStream, not Random"):
        draw_polynomials(f.names, random.Random(0), 2)


# ---------------------------------------------------------------------------
# walks over planted words against the scalar oracle


def _planted(stream, zeros, edges=()):
    """`stream` reading words whose halves at `zeros`, (word, half) pairs
    counted from the block's first word read, half 0 low and 1 high, are
    zero, and whose halves at `edges`, (word, half, span) triples, are
    `_edge_half(span)`."""
    planted = {**dict.fromkeys(zeros, 0), **{(w, half): _edge_half(span) for w, half, span in edges}}

    class Planted(stream):
        def _fresh(self, count):
            start, words = self._read, super()._fresh(count).copy()
            for (w, half), value in planted.items():
                if start <= w < start + count:
                    words[w - start] &= np.uint64(0xFFFFFFFF00000000 if half == 0 else 0xFFFFFFFF)
                    words[w - start] |= np.uint64(value << 32 * half)
            return words

    return Planted


def _edge_half(span):
    """The 32-bit half x that Lemire's method accepts for `span` at the edge
    of its rejections: x * span mod 2^32 is the threshold itself."""
    threshold = ((1 << 32) - span) % span
    twos = (span & -span).bit_length() - 1
    return (threshold >> twos) * pow(span >> twos, -1, 1 << 32 - twos) % (1 << 32)


class _Recording(ScalarWordStream):
    """The scalar oracle, recording the span of each `integers` draw and the
    (word, half) of the first 32-bit half it reads."""

    def __init__(self, rng):
        super().__init__(rng)
        self.draws, self._split = [], None

    def _uint32(self):
        if self._has_half:
            self.halves.append((self._split, 1))
        else:
            self._split = self._read - (self._end - self._pos)
            self.halves.append((self._split, 0))
        return super()._uint32()

    def integers(self, low, high):
        self.halves = []
        value = super().integers(low, high)
        self.draws.append((high - low, self.halves))
        return value


def _generator(seed, buffered=False, before=0):
    """spawn_rng(seed) after it has drawn `before` raw words, with a
    buffered high half if `buffered`."""
    rng = spawn_rng(seed)
    rng.bit_generator.random_raw(before)
    if buffered:
        rng.integers(0, 10)
    return rng


def _walk_with(stream, seed, layouts, buffered=False, before=0):
    """What a ``with stream(rng) as s`` block's walk of `layouts` read, or
    its DomainError's message, and rng's state after the block, when rng
    starts as ``_generator(seed, buffered, before)``."""
    rng = _generator(seed, buffered, before)
    try:
        with stream(rng) as words:
            out = _walked(words.walk(layouts))
    except DomainError as e:
        out = str(e)
    return out, repr(rng.bit_generator.state)


# criterion 1's layout on u1, u2 (six monomials) with Θ's on x1 (three): a
# term count spans 3, thousandths 2001, a monomial index 6 or 3
_PLANT_LAYOUTS = [(connection_draw(_frame(2, 1)), subjet1_draw(1, 1), connection_draw(_theta_frame(1)))] * 30


# raw words the Generator has drawn before a walk's block: planted words
# are counted from the block's first word, wherever the Generator stands
_BEFORE = [0, 10 ** 6]

# a seed whose planted draws below reject a term count's low half, and
# from a buffered start its high half too, after either number of words
_PLANT_SEED = 18


@pytest.mark.parametrize("before", _BEFORE)
@pytest.mark.parametrize("span", [3, 2001, 6])
@pytest.mark.parametrize("buffered", [False, True])
def test_walk_reads_planted_rejections_as_the_scalar_oracle(before, span, buffered):
    """A zero half is rejected for every span; zero the first half of the
    3rd, the 40th and the 41st draw of a span: a rejection near the start,
    and the 40th can meet a second zero half when it redraws.  The 3rd
    then takes a half accepted at the edge of the threshold, so a reader
    that rejects one more half value reads other draws."""
    recording = _Recording(_generator(_PLANT_SEED, buffered, before))
    recording.walk(_PLANT_LAYOUTS)
    firsts = [halves[0] for drawn, halves in recording.draws if drawn == span]
    zeros = {firsts[2], firsts[39], firsts[40]}
    planted = _planted(_Recording, zeros)(_generator(_PLANT_SEED, buffered, before))
    planted.walk(_PLANT_LAYOUTS)
    assert any(len(halves) > 1 for drawn, halves in planted.draws if drawn == span)
    assert sum(len(halves) - 1 for _, halves in planted.draws) >= 2
    if span == 3:
        # a rejected count takes the walk's general step, not its one-step
        # entry: a fresh low half (0), and from a buffered start a buffered
        # high half (1) too
        rejected = {half for drawn, halves in planted.draws if drawn == span for _, half in halves[:-1]}
        assert rejected == ({0, 1} if buffered else {0})
    third = [halves for drawn, halves in planted.draws if drawn == span][2]
    edges = [(*third[1], span)]
    assert _edge_half(span) * span % (1 << 32) == sampling._lemire_threshold(span)
    want = _walk_with(_planted(ScalarWordStream, zeros, edges), _PLANT_SEED, _PLANT_LAYOUTS, buffered, before)
    assert _walk_with(_planted(WordStream, zeros, edges), _PLANT_SEED, _PLANT_LAYOUTS, buffered, before) == want
    assert want != _walk_with(ScalarWordStream, _PLANT_SEED, _PLANT_LAYOUTS, buffered, before)


@pytest.mark.parametrize("before", _BEFORE)
def test_walk_rejects_a_zero_half_buffered_before_it(before):
    """The half buffered before the walk, half 0, is zero: the first term
    count reads and rejects it, as the scalar oracle and the Generator do,
    with no fill before it and after a fill."""
    frame = _frame(3, 1)

    def zero_buffered(seed):
        rng = _generator(seed, before=before)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
        return rng

    recording = _Recording(zero_buffered(24))
    recording.walk([(Polynomials(frame.names, 3),)])
    assert recording.draws[0] == (3, [(None, 1), (0, 0)])
    for layouts in ([(Polynomials(frame.names, 3),)] * 5, [(connection_draw(frame), subjet1_draw(1, 2))] * 5):
        walks = []
        for stream in (WordStream, ScalarWordStream, GeneratorStream):
            rng = zero_buffered(24)
            with stream(rng) as words:
                walked = _walked(words.walk(layouts))
            walks.append((walked, repr(rng.bit_generator.state)))
        assert walks[0] == walks[1] == walks[2]


def _zero_words(first, last):
    return {(w, half) for w in range(first, last) for half in (0, 1)}


@pytest.mark.parametrize("before", _BEFORE)
def test_walk_gate_rejects_zero_blocks_and_gives_up_as_the_scalar_oracle(before):
    # all-zero words are uniform -1.0: a 2 x 2 block of them has det 0
    layouts = [(secjet1_draw(2, 3), connection_draw(_frame(3, 2)))] * 8
    for zeros in (set(), _zero_words(0, 4), _zero_words(0, 40), _zero_words(50, 90), _zero_words(0, 600)):
        want = _walk_with(_planted(ScalarWordStream, zeros), 22, layouts, before=before)
        assert _walk_with(_planted(WordStream, zeros), 22, layouts, before=before) == want
    assert want[0].startswith("could not sample: 100 draws failed and 0 of 1 succeeded; the last failed with: "
                              "base-direction block")


# ---------------------------------------------------------------------------
# the gates' closed-form det and the three-term sums against the general
# calls they stand for


def _lapack_regular(block):
    """The per-sample gate: |np.linalg.det| >= MIN_DET."""
    return abs(np.linalg.det(np.asarray(block))) >= sampling.MIN_DET


def _sampling_dets(monkeypatch):
    """The number of blocks of each `np.linalg.det` call made from
    `sampling`, as a list that grows while the test runs."""
    det, calls = np.linalg.det, []

    def counting(a):
        if sys._getframe(1).f_globals["__name__"] == sampling.__name__:
            calls.append(len(np.reshape(a, (-1,) + np.shape(a)[-2:])))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting)
    return calls


def _gate_inputs(blocks, n):
    """The doubles d and the uniform numbers -1 + 2d of n x n blocks on the
    -1 + 2k 2^-53 grid, one block after another (d = (x + 1) / 2 is
    exact)."""
    numbers = np.ravel(blocks)
    return ((numbers + 1.0) / 2.0).tolist(), numbers


def _stacked_regular(numbers, n, count):
    """`WordStream._regular` over these numbers, as a walk's words."""
    stream = WordStream(spawn_rng(0))
    stream._uniforms = lambda start, stop: numbers[start:stop]
    return stream._regular(0, n, count)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2), st.lists(st.integers(0, 2 ** 53 - 1), min_size=4, max_size=12))
def test_gates_decide_as_lapack_on_the_grid(n, ks):
    doubles = [k * 2.0 ** -53 for k in ks]
    numbers = -1.0 + 2.0 * np.array(doubles)
    count = len(ks) - n * n + 1
    want = [_lapack_regular(numbers[i:i + n * n].reshape(n, n)) for i in range(count)]
    assert [sampling._block_regular(doubles, i, n) for i in range(count)] == want
    assert _stacked_regular(numbers, n, count) == want


def _margin_blocks():
    """Grid blocks whose closed-form |det| lies within the margin of
    MIN_DET: the 1 x 1 entries at the grid points next to +-0.3, and 2 x 2
    blocks whose ad - bc is within a few grid steps of +-0.3."""
    step = 2.0 ** -52
    ones = [[[-1.0 + j * step]] for target in (sampling.MIN_DET, -sampling.MIN_DET)
            for j in range(round((target + 1.0) / step) - 3, round((target + 1.0) / step) + 4)]
    twos = []
    for a, b, d in ((0.75, 0.5, 0.8), (0.9, -0.45, 0.7), (-0.6, 0.35, 0.95)):
        a, b, d = (-1.0 + round((x + 1.0) / step) * step for x in (a, b, d))
        for target in (sampling.MIN_DET, -sampling.MIN_DET):
            middle = round(((a * d - target) / b + 1.0) / step)
            for j in range(middle - 4, middle + 5):
                c = -1.0 + j * step
                if abs(abs(a * d - b * c) - sampling.MIN_DET) <= sampling._DET_MARGIN:
                    twos.append([[a, b], [c, d]])
    return ones, twos


def test_gates_take_lapack_within_the_margin(monkeypatch):
    calls = _sampling_dets(monkeypatch)
    for n, blocks in enumerate(_margin_blocks(), 1):
        want = [_lapack_regular(block) for block in blocks]
        assert True in want and False in want
        doubles, numbers = _gate_inputs(blocks, n)
        del calls[:]
        assert [sampling._block_regular(doubles, n * n * i, n) for i in range(len(blocks))] == want
        assert calls == [1] * len(blocks)
        del calls[:]
        # every offset of the stacked numbers is a candidate; the planted
        # blocks start at every (n * n)th
        count = len(numbers) - n * n + 1
        regular = _stacked_regular(numbers, n, count)
        assert regular[::n * n] == want
        assert regular == [_lapack_regular(numbers[i:i + n * n].reshape(n, n)) for i in range(count)]
        assert len(calls) == 1 and len(blocks) <= calls[0] <= count


def test_gated_walks_take_no_lapack_det_outside_the_margin(monkeypatch):
    calls = _sampling_dets(monkeypatch)
    layouts = [(secjet1_draw(2, 4),)] * 200
    with WordStream(spawn_rng(5)) as stream:
        walked = stream.walk(layouts)
    assert calls == []
    assert _walked(walked) == _walked(GeneratorStream(spawn_rng(5)).walk(layouts))
    # criterion 5 walks connections and section jets together, and gates
    # one candidate at a time
    assert criterion_5(AcceptanceConfig(seed=0)).passed
    assert calls == []


def _fsum_bits(triple):
    """`math.fsum` of the terms as `christoffel_stack` takes it, NaN where
    it raises, as bytes."""
    return np.float64(expr._each(math.fsum, [list(triple)])[0]).tobytes()


_MAX = sys.float_info.max
_EDGE_TERMS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, _MAX, -_MAX,
                               2.0 ** 1020, -(2.0 ** 1020), math.inf, -math.inf, math.nan, 1.0, -1.0, 0.1])
_TERMS = st.one_of(st.floats(), st.floats(-1e-300, 1e-300), st.floats(-1.0, 1.0), _EDGE_TERMS)


@st.composite
def _three_terms(draw):
    """Three terms in any order: any floats; two that cancel exactly and a
    third; or x, half an ulp of x and a tiny or zero term (a tie that the
    third term breaks or leaves)."""
    a = draw(_TERMS)
    kind = draw(st.sampled_from(["any", "cancel", "tie"]))
    if kind == "any":
        b, c = draw(_TERMS), draw(_TERMS)
    elif kind == "cancel":
        b, c = -a, draw(_TERMS)
    else:
        a = draw(st.floats(-1e300, 1e300).filter(lambda x: x != 0))
        b_sign, c_sign = draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([1.0, -1.0]))
        b = math.copysign(math.ulp(a) / 2, b_sign)
        c = draw(st.sampled_from([0.0, -0.0, 5e-324, -5e-324])
                 | st.integers(54, 200).map(lambda k: math.copysign(math.ulp(a) * 2.0 ** -k, c_sign)))
    return draw(st.permutations([a, b, c]))


@settings(max_examples=500, deadline=None)
@given(st.lists(_three_terms(), min_size=1, max_size=8))
def test_three_term_entries_sum_to_the_bits_of_fsum(triples):
    values = np.array(triples).T
    with np.errstate(all="ignore"):
        starts, sums = sampling._entry_sums(np.zeros(3, np.int64), values)
    assert starts.tolist() == [0]
    assert [np.float64(s).tobytes() for s in sums[0]] == [_fsum_bits(t) for t in triples]


def test_three_term_sums_leave_zeros_overflow_and_non_finite_terms_to_fsum():
    triples = [(1.0, -1.0, 0.0), (-0.0, -0.0, -0.0), (_MAX, _MAX, -_MAX), (math.inf, 1.0, 2.0),
               (math.inf, -math.inf, 1.0), (math.nan, 1.0, 2.0), (0.1, 0.2, 0.3), (1.0, 2.0 ** -53, 2.0 ** -60)]
    values = np.array(triples).T
    with np.errstate(all="ignore"):
        _, fallback = sampling._three_sums(*values)
        _, sums = sampling._entry_sums(np.zeros(3, np.int64), values)
    assert fallback.tolist() == [True] * 6 + [False] * 2
    assert [np.float64(s).tobytes() for s in sums[0]] == [_fsum_bits(t) for t in triples]
    # fsum raises on the partial sum _MAX + _MAX that the exact sum avoids
    assert math.isnan(sums[0, 2])


def test_criterion_3_calls_fsum_for_three_terms_only_where_the_three_sum_leaves_it(monkeypatch):
    fsum, entry_sums = math.fsum, sampling._entry_sums
    inside, three, calls = [], [], []

    def counting(terms):
        if inside:
            try:
                total = fsum(terms)
            except (ArithmeticError, ValueError):
                calls.append((len(terms), math.nan, terms))
                raise
            calls.append((len(terms), total, terms))
            return total
        return fsum(terms)

    def recording(key, values):
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        three.append(int((np.diff(starts, append=len(key)) == 3).sum()) * values.shape[1])
        inside.append(True)
        try:
            return entry_sums(key, values)
        finally:
            inside.pop()

    monkeypatch.setattr(math, "fsum", counting)
    monkeypatch.setattr(sampling, "_entry_sums", recording)
    assert criterion_3(AcceptanceConfig(seed=0)).passed
    assert sum(three) > 0 and calls
    for size, total, terms in calls:
        assert size > 3 or size == 3 and (total == 0 or not math.isfinite(total)
                                          or max(map(abs, terms)) >= 2.0 ** 1020)
