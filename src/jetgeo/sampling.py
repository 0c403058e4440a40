"""Deterministic randomness and random test objects.

All randomness in the package flows through numpy Generators seeded by a
single 64-bit seed plus a stream index, so parallel and serial runs of the
same configuration draw identical numbers.

Two readers draw ahead of a generator's calls.  A `WordStream` serves
`random`, `integers` and `uniform` from the generator's raw 64-bit words,
read in chunks, by the rules numpy's Generator applies to them, and leaves
the generator where the same calls would; the acceptance criteria read
their draws through one.  A `UniformStream` serves the numbers of
successive ``uniform(-1, 1, size)`` calls to a caller that owns its
generator and lets it run ahead.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import expr
from .connections import Connection, gather_index, shift_parts
from .errors import _REDRAWS_PER_SAMPLE, DomainError, SingularJacobianError, draw_regular, gave_up
from .expr import CoordinateFrame, Mul, Sym
from .jets import AffineMap, SecJet, SubJet


def spawn_rng(seed, index=0):
    """Generator for stream `index` of the run seeded by `seed`."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))))


# raw words a `WordStream` reads from its copy of the bit generator at a time
_WORDS_PER_CHUNK = 1024


class WordStream:
    """The scalar draws of a Generator on Philox, read ahead from its raw
    64-bit words: ``with WordStream(rng) as s`` gives an `s` whose
    `random`, `integers` and `uniform` return what the same calls on `rng`
    return, bit for bit, and when the block ends, normally or by an
    exception, `rng` is left in the state those calls would have left.

    The words come in chunks from a copy of the bit generator, and each
    call is the fixed function of them that numpy's Generator computes
    (numpy 2.4.6): a double is ``(w >> 11) * 2**-53``; a 32-bit draw is the
    buffered high half of the last word split, or else the low half of a
    new word whose high half is buffered; `integers` is Lemire's bounded
    draw on 32-bit draws.  Only the current chunk is kept.

    It stays apart from `UniformStream`, which leaves its generator ahead
    of what it consumed: this one leaves the generator where the scalar
    calls would, and, reading raw words, cannot stand on a fake generator
    that scales `uniform`, as `UniformStream`'s tests do."""

    def __init__(self, rng):
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.Philox):
            raise TypeError(f"WordStream reads a Philox bit generator, not {type(bit_generator).__name__}")
        state = bit_generator.state
        self._rng = rng
        self._copy = np.random.Philox(key=0)
        self._copy.state = state
        self._has_half, self._half = bool(state["has_uint32"]), state["uinteger"]
        self._doubles, self._low, self._high = [], [], []
        self._pos = self._end = self._read = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        bit_generator = self._rng.bit_generator
        bit_generator.random_raw(self._read - (self._end - self._pos), output=False)
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        bit_generator.state = state

    def _refill(self, count):
        """Replace the chunk by the next `count` words."""
        words = self._copy.random_raw(count)
        self._read += count
        self._pos, self._end = 0, count
        self._doubles = ((words >> 11) * 2.0 ** -53).tolist()
        self._low = (words & 0xFFFFFFFF).tolist()
        self._high = (words >> 32).tolist()

    def random(self):
        """``rng.random()``: one word's double in [0, 1)."""
        if self._pos == self._end:
            self._refill(_WORDS_PER_CHUNK)
        self._pos += 1
        return self._doubles[self._pos - 1]

    def uniform(self, low=0.0, high=1.0, size=None):
        """``rng.uniform(low, high, size)``: low + (high - low) * d for one
        word's double d per number, in C order."""
        low, scale = float(low), float(high) - float(low)
        if size is None:
            return low + scale * self.random()
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        count, start = math.prod(shape), self._pos
        if start + count <= self._end:
            self._pos += count
            doubles = self._doubles[start:self._pos]
        else:
            doubles = self._doubles[start:self._end]
            self._refill(max(count - len(doubles), _WORDS_PER_CHUNK))
            self._pos = count - len(doubles)
            doubles += self._doubles[:self._pos]
        return np.array([low + scale * d for d in doubles]).reshape(shape)

    def _uint32(self):
        """A 32-bit draw: the buffered high half, else a new word's low half."""
        if self._has_half:
            self._has_half = False
            return self._half
        if self._pos == self._end:
            self._refill(_WORDS_PER_CHUNK)
        self._pos += 1
        self._has_half, self._half = True, self._high[self._pos - 1]
        return self._low[self._pos - 1]

    def integers(self, low, high):
        """``int(rng.integers(low, high))``, by Lemire's method: with span
        r = high - low, m = x * r for a 32-bit draw x, redrawn while
        m mod 2^32 < (2^32 - r) mod r, gives low + (m >> 32).  A span of 1
        draws nothing."""
        span = high - low
        if span == 1:
            return low
        if not 1 <= span <= 1 << 32:
            raise ValueError(f"integers({low}, {high}) needs 1 <= high - low <= 2**32")
        m = self._uint32() * span
        if m & 0xFFFFFFFF < span:
            threshold = ((1 << 32) - span) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * span
        return low + (m >> 32)


@functools.cache
def _monomial_cores(names):
    """The monomials of total degree <= 2 over `names`, indexed as
    `random_polynomial` draws them: None for the constant, then each name,
    then each product of two names in `combinations_with_replacement`
    order.  A product's factors are sorted by name, which is their `_key`
    order (so u10 comes before u2)."""
    syms = [Sym(name) for name in names]
    pairs = combinations_with_replacement(syms, 2)
    return (None, *syms, *(Mul(tuple(sorted(pair, key=lambda s: s.name))) for pair in pairs))


def _draw_thousandths(size, rng):
    """The draws of one random polynomial over `size` monomials: one to three
    terms, each k/1000 with k drawn from [-1000, 1000] times a monomial
    index drawn from [0, size).  Returns the thousandths summed per index,
    in first-drawn order; a sum may cancel to 0."""
    thousandths = {}
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(-1000, 1001))
        index = int(rng.integers(0, size))
        thousandths[index] = thousandths.get(index, 0) + k
    return thousandths


def draw_polynomials(names, rng, count):
    """The thousandths of `count` random polynomials over the names, drawn
    by `_draw_thousandths` one after another."""
    size = len(_monomial_cores(tuple(names)))
    return [_draw_thousandths(size, rng) for _ in range(count)]


def _polynomial(cores, thousandths, subtracted=None):
    """The tree of a polynomial drawn by `_draw_thousandths`, collected
    straight into `simplify`'s normal form: the result equals, and is
    marked as, what `simplify` gives for the sum of the drawn terms.  With
    `subtracted`, the thousandths of a polynomial of two or more terms, the
    tree is that of the polynomial minus the whole of the other, which
    `simplify` keeps as the one term (-1)*(its normal form)."""
    terms = [(cores[i], Fraction(k, 1000)) for i, k in thousandths.items() if i != 0]
    if subtracted:
        terms.append((_polynomial(cores, subtracted), Fraction(-1)))
    return expr.normal_sum(terms, Fraction(thousandths.get(0, 0), 1000))


def random_polynomial(names, rng):
    """Random polynomial over the names: one to three monomials of total
    degree <= 2, each with a coefficient k/1000, k drawn from
    [-1000, 1000]."""
    cores = _monomial_cores(tuple(names))
    return _polynomial(cores, _draw_thousandths(len(cores), rng))


@functools.cache
def _monomial_factors(names):
    """For each monomial of `_monomial_cores(names)`, the indices of its
    factors in the point, in the core's factor order."""
    index = {name: i for i, name in enumerate(names)}
    return tuple(() if core is None else (index[core.name],) if isinstance(core, Sym)
                 else tuple(index[s.name] for s in core.factors) for core in _monomial_cores(names))


def _fsum_columns(terms, count):
    """`math.fsum` of the terms at each of `count` points, where a term is
    an array over the points or a float, the same at each; NaN where fsum
    raises (see `expr._each`)."""
    stacked = np.empty((len(terms), count))
    for row, term in zip(stacked, terms):
        row[:] = term
    return np.array(expr._each(math.fsum, stacked.T.tolist()))


@dataclass(frozen=True)
class PolynomialConnection:
    """A random polynomial connection in coefficient form: `entries` maps
    each stored (A, B, C) to its polynomial as `_draw_thousandths` returns
    it, a dict from an index into `_monomial_cores(frame.names)` to
    thousandths.  An entry may also have a polynomial of two or more terms
    in `subtracted`, with the same keys, that is taken away as a whole: the
    shifts leave one there, as `simplify` leaves a (-1)*(sum) in the trees.

    It is a numeric connection (see `connections`): `christoffel_at` and
    `christoffel_many` give the bits of ``connection()``'s without building
    trees, and it has no singular points."""

    frame: CoordinateFrame
    entries: Mapping
    subtracted: Mapping = field(default_factory=dict)
    singular_points = ()

    @property
    def dim(self):
        return self.frame.dim

    def connection(self):
        """The `Connection` of the trees (entries that cancel to zero are
        dropped by `Connection`)."""
        cores = _monomial_cores(self.frame.names)
        return Connection(self.frame, {key: _polynomial(cores, t, self.subtracted.get(key))
                                       for key, t in self.entries.items()})

    def _values(self, xs, fsum):
        """The value of each stored entry, in order, by the interpreter's
        float operations on its tree.  `xs` holds one column per
        coordinate: floats at one point, with `math.fsum`, or arrays over a
        batch of points, with `_fsum_columns` over them.

        A term is k/1000 (the correctly rounded value of the constant)
        times each factor in the core's order (a bare core's 1.0 * x is x),
        and a subtracted polynomial is the one term -1.0 * its sum.  One
        term stands as it is; two sum as (a + b) + 0.0, which rounds as
        `fsum` does and turns -0.0 into fsum's 0.0; more go through
        `fsum`; no terms (all cancel) give fsum's 0.0, the slot that
        `Connection` leaves for the entry it drops.  A sum does not depend
        on the order of its terms, so only the terms must match the
        trees', not the order in which the trees sort them."""
        factors = _monomial_factors(self.frame.names)

        def total(thousandths, terms):
            for index, k in thousandths.items():
                if k:
                    value = k / 1000
                    for i in factors[index]:
                        value *= xs[i]
                    terms.append(value)
            if len(terms) > 2:
                return fsum(terms)
            if len(terms) == 2:
                return (terms[0] + terms[1]) + 0.0
            return terms[0] if terms else 0.0

        subtracted = self.subtracted
        if not subtracted:
            return [total(t, []) for t in self.entries.values()]
        return [total(t, [-1.0 * total(subtracted[key], [])] if key in subtracted else [])
                for key, t in self.entries.items()]

    def christoffel_at(self, point):
        """The array of ``connection().christoffel_at(point)``, bit for bit,
        straight from the coefficients."""
        l = self.frame.dim
        flat = [0.0] * (l * l * l)
        for (a, b, c), value in zip(self.entries, self._values([float(x) for x in point], math.fsum)):
            flat[((a - 1) * l + c - 1) * l + b - 1] = flat[((b - 1) * l + c - 1) * l + a - 1] = value
        return np.array(flat).reshape(l, l, l)

    def christoffel_many(self, points):
        """The arrays of `christoffel_at` at the rows of an (N, l) point
        array, stacked (N, l, l, l) and C-contiguous, as
        ``connection().christoffel_many(points)`` gives them, with the
        same failures: a DomainError at each point where a value is not
        finite, which is where the trees' evaluation raises."""
        points = np.asarray(points, dtype=float)
        k = len(self.entries)
        stacked = np.zeros((len(points), k + 1))
        fsum = functools.partial(_fsum_columns, count=len(points))
        with np.errstate(all="ignore"):
            for j, value in enumerate(self._values(list(np.ascontiguousarray(points.T)), fsum)):
                stacked[:, j] = value
        failed = np.flatnonzero(~np.isfinite(stacked).all(axis=1)).tolist()
        failures = {i: DomainError("evaluation produced a non-finite Christoffel value") for i in failed}
        return np.take(stacked, gather_index(self.entries, self.frame.dim), axis=1), failures

    def shifted(self, diff):
        """`Connection.shifted` in integer thousandths: each entry minus the
        collected sum of its parts (thousandths too), at each entry
        `shift_parts` yields.  As `simplify` treats the (-1)*(sum) it is
        given, a sum of one term merges into the entry's thousandths, and a
        sum of two or more goes whole into `subtracted`."""
        if self.subtracted:
            raise ValueError("a connection with a subtracted polynomial is not shifted again")
        entries, subtracted = {}, {}
        for key, parts in shift_parts(self.frame.dim, self.entries, diff):
            whole = {}
            for part in parts:
                for index, k in part.items():
                    whole[index] = whole.get(index, 0) + k
            terms = {index: k for index, k in whole.items() if k}
            entry = dict(self.entries.get(key, {}))
            if len(terms) == 1:
                [(index, k)] = terms.items()
                entry[index] = entry.get(index, 0) - k
            elif terms:
                subtracted[key] = terms
            entries[key] = entry
        return PolynomialConnection(self.frame, entries, subtracted)


def draw_connection(frame, rng, fill=0.6):
    """Random polynomial Christoffels on a fraction `fill` of the
    independent components, as a `PolynomialConnection`: for each (A, B, C)
    with A <= B in order, one uniform draw decides whether the entry is
    stored, and a stored entry's polynomial is drawn at once."""
    l = frame.dim
    size = len(_monomial_cores(frame.names))
    entries = {}
    for a in range(1, l + 1):
        for b in range(a, l + 1):
            for c in range(1, l + 1):
                if rng.random() < fill:
                    entries[(a, b, c)] = _draw_thousandths(size, rng)
    return PolynomialConnection(frame, entries)


def random_connection(frame, rng, fill=0.6):
    """The `Connection` of `draw_connection(frame, rng, fill)`."""
    return draw_connection(frame, rng, fill).connection()


def random_expressions(names, rng, count):
    return [random_polynomial(names, rng) for _ in range(count)]


# the least |det| of the n x n block that `secjet1_arrays` and `random_affine`
# accept (and `UniformStream.walk` with them)
MIN_DET = 0.3


class UniformStream:
    """The numbers of successive ``rng.uniform(-1.0, 1.0, size)`` calls, read
    ahead from buffered draws of the generator, for a caller that owns its
    generator and must look at numbers before it knows how many it consumes.

    ``rng.uniform(-1, 1, (k, l))`` gives what k calls ``rng.uniform(-1, 1, l)``
    give, so what is consumed lines up with those calls; the generator
    itself runs ahead of it.

    It stays apart from `WordStream`: its callers own their generators and
    let them run ahead, and its tests force rejections with a fake
    generator whose `uniform` is scaled, which a reader of raw words
    cannot use."""

    def __init__(self, rng):
        self.rng = rng
        self.buffer = np.empty(0)
        self.pos = 0

    def peek(self, count):
        """The next `count` numbers, without consuming them."""
        if len(self.buffer) - self.pos < count:
            fresh = self.rng.uniform(-1.0, 1.0, max(count, 256))
            self.buffer = np.concatenate([self.buffer[self.pos:], fresh])
            self.pos = 0
        return self.buffer[self.pos:self.pos + count]

    def skip(self, count):
        """Consume `count` numbers."""
        self.pos += count

    def walk(self, n, draws, rounds):
        """The offsets of `rounds` rounds of draws, each round the `draws` in
        order, read as the per-sample samplers read them from the generator:
        a `Draw` with a gate takes candidates until the n x n matrix at the
        start of one has |det| >= MIN_DET.  Returns the peeked numbers and an
        int array (rounds, len(draws)) of each accepted draw's offset in
        them, and consumes what the rounds read.

        The determinant is taken at every offset of the numbers by one
        stacked `np.linalg.det`, the bits of one per candidate.  A draw
        rejected 100 times raises the DomainError with which `draw_regular`
        gives up its per-sample sampler, after consuming what it read."""
        sizes = [(d.accepted, d.rejected, d.gate) for d in draws]
        numbers = self.peek(2 * rounds * sum(accepted for accepted, _, _ in sizes))
        dets, at, starts = None, 0, []
        try:
            for _ in range(rounds):
                for accepted, rejected_size, gate in sizes:
                    rejected = 0
                    while True:
                        if at + accepted > len(numbers):
                            numbers, dets = self.peek(2 * len(numbers)), None
                        if gate is None:
                            break
                        if dets is None:
                            windows = sliding_window_view(numbers, n * n).reshape(-1, n, n)
                            dets = np.abs(np.linalg.det(windows)).tolist()
                        if dets[at] >= MIN_DET:
                            break
                        at += rejected_size
                        rejected += 1
                        if rejected == _REDRAWS_PER_SAMPLE:
                            raise gave_up(rejected, 0, 1, gate)
                    starts.append(at)
                    at += accepted
        finally:
            self.skip(at)
        return numbers, np.array(starts, dtype=int).reshape(rounds, len(draws))


@dataclass(frozen=True)
class Draw:
    """What one per-sample draw reads from a `UniformStream`: arrays of
    `shapes`, in order.  With a `gate` (why a candidate is rejected), the
    first array is a candidate, redrawn until the n x n matrix at its start
    has |det| >= MIN_DET; a rejected candidate reads that array alone."""

    shapes: tuple
    gate: str = None

    @property
    def accepted(self):
        return sum(math.prod(shape) for shape in self.shapes)

    @property
    def rejected(self):
        return math.prod(self.shapes[0])

    def parts(self, numbers, starts):
        """The arrays of the draws at `starts` (as `UniformStream.walk`
        returns them), in the order drawn, each stacked along the axes of
        `starts`."""
        starts, offset, parts = np.asarray(starts)[..., None], 0, []
        for shape in self.shapes:
            width = math.prod(shape)
            parts.append(numbers[starts + np.arange(offset, offset + width)].reshape(*starts.shape[:-1], *shape))
            offset += width
        return tuple(parts)


_SECJET_GATE = "base-direction block of the section jet is near singular"
_AFFINE_GATE = "linear part of the affine map is near singular"


def secjet1_draw(n, l):
    """The `Draw` of `secjet1_arrays`: first (l, n), x (n), then u (l)."""
    return Draw(((l, n), (n,), (l,)), _SECJET_GATE)


def affine_draw(n):
    """The `Draw` of `random_affine`: a (n, n), then b (n)."""
    return Draw(((n, n), (n,)), _AFFINE_GATE)


def subjet1_draw(n, m):
    """The `Draw` of `random_subjet1`: base (n + m), then first (m, n)."""
    return Draw(((n + m,), (m, n)))


def subjet1_stream(n, m, stream, k):
    """The next k order-1 submanifold jets of `stream`, as k
    `random_subjet1(n, m, rng)` calls draw them from its generator: (base,
    first), stacked (k, n + m) and (k, m, n)."""
    draw = subjet1_draw(n, m)
    numbers, starts = stream.walk(n, [draw], k)
    return draw.parts(numbers, starts[:, 0])


def secjet1_stream(n, l, stream, k):
    """The next k order-1 section jets of `stream`, as k `secjet1_arrays(n,
    l, rng)` calls draw them from its generator: (x, u, first), stacked
    (k, n), (k, l) and (k, l, n)."""
    draw = secjet1_draw(n, l)
    numbers, starts = stream.walk(n, [draw], k)
    first, x, u = draw.parts(numbers, starts[:, 0])
    return x, u, first


def near_singular(g, point):
    """DomainError if the point lies within 1e-6 of one of g's declared
    singular points, else None."""
    if any(np.linalg.norm(point - np.asarray(s)) < 1e-6 for s in g.singular_points):
        return DomainError("sample point within 1e-6 of a declared singular point")
    return None


def random_point(g, rng):
    """One point drawn from [-1, 1]^l.  Raises DomainError where a
    Christoffel entry fails to evaluate or within 1e-6 of one of the
    connection's declared singular points; callers redraw through
    `draw_regular`."""
    point = rng.uniform(-1.0, 1.0, g.dim)
    error = near_singular(g, point)
    if error is not None:
        raise error
    g.christoffel_at(point)
    return point


def random_subjet1(n, m, rng):
    """Random order-1 submanifold jet with coordinates in [-1, 1]."""
    return SubJet(n, m, rng.uniform(-1.0, 1.0, n + m), rng.uniform(-1.0, 1.0, (m, n)))


def secjet1_arrays(n, l, rng):
    """The (x, u, first) of a random order-1 section jet whose base-direction
    derivative block is comfortably invertible (admissible for the covering
    projections): `first` is redrawn until |det first[:n]| >= MIN_DET, then
    x and u are drawn."""

    def draw():
        first = rng.uniform(-1.0, 1.0, (l, n))
        if abs(np.linalg.det(first[:n, :])) < MIN_DET:
            raise SingularJacobianError(_SECJET_GATE)
        return rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, l), first

    return draw_regular(draw, 1)[0][0]


def random_secjet1(n, l, rng):
    """Random order-1 section jet drawn by `secjet1_arrays`."""
    return SecJet(n, l, *secjet1_arrays(n, l, rng))


def random_affine(n, rng):
    """Random affine map of the parameter space with |det a| >= MIN_DET."""

    def draw():
        a = rng.uniform(-1.0, 1.0, (n, n))
        if abs(np.linalg.det(a)) < MIN_DET:
            raise SingularJacobianError(_AFFINE_GATE)
        return AffineMap(a, rng.uniform(-1.0, 1.0, n))

    return draw_regular(draw, 1)[0][0]
