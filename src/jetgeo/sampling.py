"""Deterministic randomness and random test objects.

All randomness in the package flows through numpy Generators seeded by a
single 64-bit seed plus a stream index, so parallel and serial runs of the
same configuration draw identical numbers.

Two readers draw ahead of a generator's calls.  A `WordStream` reads the
generator's raw 64-bit words in chunks, by the rules numpy's Generator
applies to them, and leaves the generator where the same calls would.
It serves `random` and `uniform`, and its `walk` reads the draws of many
samples, each a tuple of `Polynomials` (random polynomials and
connections) and `Draw`s (uniform arrays, gated or not), in one loop over
the words; the acceptance criteria read their draws through one, and
`draw_connection` and `draw_polynomials` are walks of one sample.  A
`UniformStream` serves the numbers of successive ``uniform(-1, 1, size)``
calls to a caller that owns its generator and lets it run ahead.
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


# raw words a `WordStream` reads from its copy of the bit generator at a
# time, and the most a walk turns into Python lists at a time
_WORDS_PER_CHUNK = 1024

# a walk of at most this many stored polynomials reads their terms in
# Python, not numpy: the Python reader costs about 2 us per polynomial and
# the numpy reader about 25 us per walk, so they break even at about 13
# (README "Performance" gives the timings)
_ENTRIES_READ_ONE_BY_ONE = 12

# the bit generators whose doubles and 32-bit draws follow `WordStream`'s
# rules: a double from one word, a 32-bit draw from half of one, the other
# half buffered (MT19937 draws 32 bits at a time and a double from two)
_WORD_BIT_GENERATORS = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)

# the spans of a polynomial's term count, integers(1, 4), and of a term's
# thousandths, integers(-1000, 1001)
_COUNT_SPAN, _K_SPAN = 3, 2001


def _lemire_threshold(span):
    """(2^32 - span) mod span: Lemire's method redraws a 32-bit draw x for
    this span while x * span mod 2^32 is below it, and else gives
    x * span >> 32."""
    return ((1 << 32) - span) % span


_COUNT_THRESHOLD, _K_THRESHOLD = _lemire_threshold(_COUNT_SPAN), _lemire_threshold(_K_SPAN)


def _doubles(words):
    """``rng.random()`` of each raw word: (w >> 11) * 2**-53."""
    return (words >> 11) * 2.0 ** -53


class WordStream:
    """The draws of a Generator on Philox, PCG64 (`default_rng`), PCG64DXSM
    or SFC64, read ahead from its raw 64-bit words: ``with WordStream(rng)
    as s`` gives an `s` whose `random` and `uniform` return what the same
    calls on `rng` return, bit for bit, and whose `walk` reads the random
    polynomials and uniform arrays of many samples as the per-sample calls
    read them; when the block ends, normally or by an exception, `rng` is
    left in the state those calls would have left.

    The words come in chunks from a copy of the bit generator, and each
    draw is the fixed function of them that numpy's Generator computes
    (numpy 2.4.6): a double is ``(w >> 11) * 2**-53``; a 32-bit draw is the
    buffered high half of the last word split, or else the low half of a
    new word whose high half is buffered; ``integers(low, high)`` is
    Lemire's bounded draw on 32-bit draws.

    It stays apart from `UniformStream`, which leaves its generator ahead
    of what it consumed: this one leaves the generator where the scalar
    calls would, and, reading raw words, cannot stand on a fake generator
    that scales `uniform`, as `UniformStream`'s tests do."""

    def __init__(self, rng):
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, _WORD_BIT_GENERATORS):
            names = ", ".join(kind.__name__ for kind in _WORD_BIT_GENERATORS)
            raise TypeError(f"WordStream reads a {names} bit generator, not {type(bit_generator).__name__}")
        state = bit_generator.state
        self._rng = rng
        self._copy = type(bit_generator)(0)
        self._copy.state = state
        self._has_half, self._half = bool(state["has_uint32"]), state["uinteger"]
        self._read = 0
        self._set_chunk(np.empty(0, np.uint64))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        bit_generator = self._rng.bit_generator
        bit_generator.random_raw(self._read - (self._end - self._pos), output=False)
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        bit_generator.state = state

    def _fresh(self, count):
        """The next `count` words of the copy."""
        self._read += count
        return self._copy.random_raw(count)

    def _set_chunk(self, words):
        """Serve the draws from these words on."""
        self._words, self._doubles, self._halves = words, _doubles(words).tolist(), None
        self._pos, self._end = 0, len(words)

    def random(self):
        """``rng.random()``: one word's double in [0, 1)."""
        if self._pos == self._end:
            self._set_chunk(self._fresh(_WORDS_PER_CHUNK))
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
            self._set_chunk(self._fresh(max(count - len(doubles), _WORDS_PER_CHUNK)))
            self._pos = count - len(doubles)
            doubles += self._doubles[:self._pos]
        return np.array([low + scale * d for d in doubles]).reshape(shape)

    def walk(self, layouts):
        """The draws of `layouts`, one tuple of `Polynomials` and `Draw`
        items per sample, read in order as the per-sample calls read them,
        as a `Walked`.  A `Draw` reads as `secjet1_arrays` reads its arrays
        (with a gate) or as ``uniform(-1, 1, shape)`` calls (without).

        One Python loop does index arithmetic on the words and decides
        only what moves the rest: each fill, each term count and each gate.
        An entry's terms take the 32-bit halves that follow its count, one
        after another, so the loop places them without reading them; then
        each term's thousandths and monomial index are read from its half
        by Lemire's method, by numpy for a walk of more than
        `_ENTRIES_READ_ONE_BY_ONE` entries and in Python below.  Where
        that method rejects a half (about one in two million, or a zero
        half), the entry's terms take one more half, and the loop runs
        again with that entry's run known.  A gate takes `np.linalg.det` of
        each candidate's n x n block, as the per-sample draw does (a stacked
        det over every offset of the words in hand cost more than the few
        candidates); a draw rejected 100 times raises the DomainError with
        which `draw_regular` gives up its per-sample sampler, after
        consuming what it read."""
        plans = {}
        for layout in layouts:
            if id(layout) not in plans:
                plans[id(layout)] = tuple(map(_plan, layout))
        self._walk_words = self._words[self._pos:]
        runs = {}
        while True:
            p, has_half, hp, entries, starts, error = self._pass(layouts, plans, runs)
            read = self._terms(entries, runs, p)
            if read is not None:
                entries, terms = read
                break
        words = self._walked(p)
        draws = any(not item[0] for plan in plans.values() for item in plan)
        numbers = -1.0 + 2.0 * _doubles(words[:p]) if draws else None
        if len(words) == self._end - self._pos:
            self._pos += p
        else:
            self._set_chunk(words[p:])
        if hp:
            self._half = int(words[(hp - 1) >> 1]) >> 32
        self._has_half = has_half
        del self._walk_words
        if error is not None:
            raise error
        return Walked(layouts, numbers, starts, entries, terms)

    def _terms(self, entries, runs, p):
        """The entries of a `_pass` that read p words and the (entry,
        thousandths, monomial index) of each of their terms, both as rows
        of an int array, or of a list for a few entries; or None, after
        adding to `runs` the first entry whose run the pass did not know
        and Lemire's method lengthens."""
        if len(entries) <= _ENTRIES_READ_ONE_BY_ONE:
            terms = []
            for e, values, run in self._read_terms(entries, range(len(entries)), p):
                if run != runs.get(e, len(values)):
                    runs[e] = run
                    return None
                terms += [(e, k - 1000, index) for k, index in zip(values[::2], values[1::2])]
            return entries, terms
        table = np.array(entries, dtype=np.int64)
        counts = table[:, 4]
        terms = np.empty((counts.sum(), 3), dtype=np.int64)
        entry = terms[:, 0]
        entry[:] = np.repeat(np.arange(len(table)), counts)
        offsets = np.cumsum(counts) - counts
        at = np.repeat(table[:, 3] - 2 * offsets, counts)
        at += np.arange(0, 2 * len(entry), 2)
        halves = np.empty(2 * p + 1, dtype=np.uint64)
        halves[0], halves[1:] = self._half, self._walked(p)[:p].astype("<u8", copy=False).view("<u4")
        size = table[entry, 5].astype(np.uint64)
        k, index = halves[at] * np.uint64(_K_SPAN), halves[at + 1] * size
        rejected = (k & 0xFFFFFFFF) < _K_THRESHOLD
        rejected |= (index & 0xFFFFFFFF) < _lemire_threshold(size)
        terms[:, 1], terms[:, 2] = k >> 32, index >> 32
        terms[:, 1] -= 1000
        for e, read, _ in self._read_terms(entries, runs, p):
            rejected[offsets[e]:offsets[e] + counts[e]] = False
            terms[offsets[e]:offsets[e] + counts[e], 1:] = np.reshape(read, (-1, 2)) - [1000, 0]
        if rejected.any():
            [(e, _, runs[e])] = self._read_terms(entries, [int(entry[rejected.argmax()])], p)
            return None
        return table, terms

    def _read_terms(self, entries, chosen, p):
        """For each chosen entry of a `_pass` that read p words: its index,
        the values of its terms' draws (thousandths + 1000, then monomial
        index, term after term) and how many halves they read, by Lemire's
        method in Python."""
        if not chosen:
            return []
        words = p + 32
        while True:
            halves, shift = self._half_list(words)
            try:
                return [(e, *_lemire_run(halves, entries[e][3] + shift, *entries[e][4:6]))
                        for e in chosen]
            except IndexError:
                words *= 2

    def _half_list(self, words):
        """The halves of the walk's first `words` words as a list, and the
        shift from a half's position (see `_pass`) to its index: the
        stream chunk's list where the walk has not read past it."""
        if words <= self._end - self._pos:
            return self._halves, 2 * self._pos - 1
        return [self._half] + self._walked(words)[:words].astype("<u8").view("<u4").tolist(), 0

    def _pass(self, layouts, plans, runs):
        """One run of `walk`'s loop, where entry e's terms take runs[e]
        halves: the next word, whether a half is buffered, the position of
        the high half of the last word split, the entries (sample, item,
        slot, position of its first term's half, term count, monomials),
        the start of each `Draw` (-1 for a `Polynomials` item) per sample,
        and the DomainError of a gate that gave up, else None.

        Words count from the walk's first; half 0 is the one buffered
        before the walk, and halves 2w + 1 and 2w + 2 are the low and high
        halves of word w.  The words in hand, as Python lists, start at
        the buffered half's word, so a term count can read it; the first
        are the rest of the stream's chunk."""
        if self._halves is None:
            self._halves = self._words.astype("<u8").view("<u4").tolist()
        half0, p, has_half, hp = self._half, 0, self._has_half, 0
        window = self._window
        base, end, doubles, halves = -self._pos, self._end - self._pos, self._doubles, self._halves
        entries, starts = [], []
        append = entries.append
        for i, layout in enumerate(layouts):
            row = []
            for j, plan in enumerate(plans[id(layout)]):
                if plan[0]:
                    _, count, fill, size = plan
                    for slot in range(count):
                        if fill is not None:
                            if p >= end:
                                base, end, doubles, halves = window((hp - 1) >> 1 if has_half and hp else p, p + 1)
                            p += 1
                            if doubles[p - 1 - base] >= fill:
                                continue
                        while True:
                            if has_half:
                                pos, has_half = hp, False
                            else:
                                pos = 2 * p + 1
                                hp, has_half, p = pos + 1, True, p + 1
                            if pos > 2 * end:
                                base, end, doubles, halves = window((pos - 1) >> 1, p)
                            x = halves[pos - 2 * base - 1] if pos else half0
                            if x * _COUNT_SPAN & 0xFFFFFFFF >= _COUNT_THRESHOLD:
                                break
                        terms = 1 + (x * _COUNT_SPAN >> 32)
                        first = hp if has_half else 2 * p + 1
                        last = first - 1 + (runs.get(len(entries), 2 * terms) if runs else 2 * terms)
                        p, has_half, hp = (last + 1) >> 1, last & 1 == 1, last + (last & 1)
                        append((i, j, slot, first, terms, size))
                    row.append(-1)
                    continue
                _, accepted, rejected, n, gate = plan
                if gate is not None:
                    width, tries = n * n, 0
                    while True:
                        if p + width > end:
                            base, end, doubles, halves = window((hp - 1) >> 1 if has_half and hp else p, p + width)
                        block = -1.0 + 2.0 * np.array(doubles[p - base:p - base + width]).reshape(n, n)
                        if abs(np.linalg.det(block)) >= MIN_DET:
                            break
                        p += rejected
                        tries, error = _rejected(tries, gate)
                        if error is not None:
                            return p, has_half, hp, entries, starts, error
                row.append(p)
                p += accepted
            starts.append(row)
        return p, has_half, hp, entries, starts, None

    def _walked(self, count):
        """The words of the walk, at least `count` of them."""
        if len(self._walk_words) < count:
            fresh = self._fresh(max(count - len(self._walk_words), _WORDS_PER_CHUNK))
            self._walk_words = np.concatenate([self._walk_words, fresh])
        return self._walk_words

    def _window(self, start, need):
        """Words `start` to at least `need` of the walk, for `_pass`: their
        start and end, and their doubles and halves as lists."""
        end = max(need, start + _WORDS_PER_CHUNK)
        words = self._walked(end)[start:end]
        return start, end, _doubles(words).tolist(), words.astype("<u8").view("<u4").tolist()


def _rejected(tries, gate):
    """The count of a gated draw's rejected candidates, `tries`, after one
    more, and the DomainError with which `draw_regular` gives up its
    per-sample sampler at the 100th, else None: the rule of both walks'
    gates."""
    tries += 1
    return tries, gave_up(tries, 0, 1, gate) if tries == _REDRAWS_PER_SAMPLE else None


def _lemire_run(halves, first, count, size):
    """The draws of `count` terms over `size` monomials, each its
    thousandths + 1000 then its monomial index, by Lemire's method on the
    32-bit halves of the list from `first` on: the values x * span >> 32 of
    the halves x not rejected, and how many halves they read.  IndexError
    where the list ends first."""
    values, pos = [], first
    for span, threshold in ((_K_SPAN, _K_THRESHOLD), (size, _lemire_threshold(size))) * count:
        while halves[pos] * span & 0xFFFFFFFF < threshold:
            pos += 1
        values.append(halves[pos] * span >> 32)
        pos += 1
    return values, pos - first


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


@dataclass(frozen=True)
class Polynomials:
    """What a draw of `count` random polynomials over `names` reads from a
    generator, one candidate after another.  With a `fill`, a candidate
    first reads a double d, ``random()``, and has a polynomial only where
    d < fill.  A polynomial reads its number of terms, ``integers(1, 4)``,
    then for each term its thousandths k, ``integers(-1000, 1001)``, and
    the index of its monomial in `_monomial_cores(names)`,
    ``integers(0, size)``: it is the sum of the k/1000 times their
    monomials.

    This is the one statement of that layout.  `WordStream.walk` reads it
    for many samples at once; `draw_connection` and `draw_polynomials`
    are walks of one sample of one item."""

    names: tuple
    count: int
    fill: float = None

    @property
    def size(self):
        return len(_monomial_cores(self.names))


@functools.cache
def _candidate_keys(l):
    """The (A, B, C) of the independent components of a connection in l
    coordinates, A <= B, in the order `connection_draw` reads them."""
    return tuple((a, b, c) for a in range(1, l + 1) for b in range(a, l + 1) for c in range(1, l + 1))


def connection_draw(frame, fill=0.6):
    """The `Polynomials` of a random connection on `frame`: one candidate
    per `_candidate_keys` entry, stored with probability `fill`."""
    return Polynomials(frame.names, len(_candidate_keys(frame.dim)), fill)


def _plan(item):
    """The numbers by which `WordStream._pass` reads a layout item."""
    if isinstance(item, Polynomials):
        return True, item.count, item.fill, item.size
    return False, item.accepted, item.rejected, item.shapes[0][-1], item.gate


class Walked:
    """The draws a walk read, over its samples.

    `numbers` holds the uniform number -1 + 2d of each word's double d
    (None where the walk read no `Draw`), and starts[i][j] the offset in
    it of the arrays of `Draw` j of sample i (-1 at a `Polynomials` item).
    `entries` lists the (sample, item, slot, ...) of each stored
    polynomial and `terms` the (entry, thousandths, monomial index) of
    each drawn term, both in the order drawn.  Each of the three is an int
    array or a list of rows, made an array when first needed as one."""

    def __init__(self, layouts, numbers, starts, entries, terms):
        self.layouts, self.numbers, self.starts = layouts, numbers, starts
        self.entries, self.terms = entries, terms

    def parts(self, j, samples):
        """The arrays of `Draw` j, the same at each of `samples`, stacked
        along them in the order drawn (see `Draw.parts`)."""
        self.starts = np.asarray(self.starts, dtype=np.int64)
        return self.layouts[samples[0]][j].parts(self.numbers, self.starts[samples, j])

    def polynomials(self, j, sample):
        """The stored polynomials of item j at one sample, by slot in the
        order drawn: each a dict from monomial index to the thousandths
        drawn for it, summed, in first-drawn order (a sum may cancel to
        0)."""
        out, slots = {}, {}
        for e, row in enumerate(_rows(self.entries)):
            if row[0] == sample and row[1] == j:
                slots[e] = out[row[2]] = {}
        for e, k, index in _rows(self.terms):
            thousandths = slots.get(e)
            if thousandths is not None:
                thousandths[index] = thousandths.get(index, 0) + k
        return out

    def stacked_terms(self, j, samples):
        """The terms of the polynomials of item j at `samples`, for
        `christoffel_stack`: arrays (row, slot, thousandths, monomial
        index), where row is the place of the term's sample in `samples`.
        The thousandths drawn for one monomial of an entry are summed, sums
        of 0 are dropped, and the terms of an entry stand together."""
        if isinstance(self.entries, list):
            width = len(self.entries[0]) if self.entries else 3
            self.entries = np.array(self.entries, dtype=np.int64).reshape(-1, width)
            self.terms = np.array(self.terms, dtype=np.int64).reshape(-1, 3)
        rank = np.full(len(self.starts), -1)
        rank[samples] = np.arange(len(samples))
        sample, item, slot = self.entries[:, :3].T
        terms = self.terms
        chosen = (item == j) & (rank[sample] >= 0)
        entry, k, index = terms[chosen[terms[:, 0]]].T
        keys, inverse = np.unique(entry << 32 | index, return_inverse=True)
        sums = np.bincount(inverse, weights=k, minlength=len(keys)).astype(np.int64)
        keys, sums = keys[sums != 0], sums[sums != 0]
        entry = keys >> 32
        return rank[sample[entry]], slot[entry], sums, keys & 0xFFFFFFFF


def _rows(table):
    """The rows of an int array, or of a list, as a list."""
    return table if isinstance(table, list) else table.tolist()


def _walk(rng, layouts):
    """``rng.walk(layouts)`` of a stream, or of a `WordStream` opened on a
    Generator for this walk alone.  The draw functions take either: a
    Generator on another bit generator (MT19937), or an object with no
    `walk`, is a TypeError."""
    if isinstance(rng, np.random.Generator):
        with WordStream(rng) as stream:
            return stream.walk(layouts)
    if not hasattr(rng, "walk"):
        raise TypeError(f"random polynomials are drawn from a Generator or a WordStream, not {type(rng).__name__}")
    return rng.walk(layouts)


def draw_polynomials(names, rng, count):
    """The thousandths of `count` random polynomials over the names, drawn
    one after another (see `Polynomials`): each a dict from monomial index
    to the thousandths drawn for it, summed, in first-drawn order.  `rng`
    is a `WordStream`, or a Generator on one of the bit generators it
    reads (see `_walk`), as for each draw built on this one."""
    return list(_walk(rng, [(Polynomials(tuple(names), count),)]).polynomials(0, 0).values())


def _polynomial(cores, thousandths, subtracted=None):
    """The tree of a polynomial drawn by `draw_polynomials`, collected
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
    return random_expressions(names, rng, 1)[0]


@functools.cache
def _monomial_factors(names):
    """For each monomial of `_monomial_cores(names)`, the indices of its
    factors in the point, in the core's factor order."""
    index = {name: i for i, name in enumerate(names)}
    return tuple(() if core is None else (index[core.name],) if isinstance(core, Sym)
                 else tuple(index[s.name] for s in core.factors) for core in _monomial_cores(names))


def _fsum(terms):
    """`math.fsum` of the terms, NaN where it raises."""
    return expr._each(math.fsum, [terms])[0]


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
    each stored (A, B, C) to its polynomial as `draw_polynomials` returns
    one, a dict from an index into `_monomial_cores(frame.names)` to
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
        straight from the coefficients, with the same failure: where a
        value is not finite, the trees' DomainError."""
        l = self.frame.dim
        flat = [0.0] * (l * l * l)
        values = self._values([float(x) for x in point], _fsum)
        for (a, b, c), value in zip(self.entries, values):
            flat[((a - 1) * l + c - 1) * l + b - 1] = flat[((b - 1) * l + c - 1) * l + a - 1] = value
        if not all(map(math.isfinite, values)):
            raise self._failure(point)
        return np.array(flat).reshape(l, l, l)

    def christoffel_many(self, points):
        """The arrays of `christoffel_at` at the rows of an (N, l) point
        array, stacked (N, l, l, l) and C-contiguous, as
        ``connection().christoffel_many(points)`` gives them, with the
        same failures: the trees' DomainError at each point where a value
        is not finite."""
        points = np.asarray(points, dtype=float)
        k = len(self.entries)
        stacked = np.zeros((len(points), k + 1))
        fsum = functools.partial(_fsum_columns, count=len(points))
        with np.errstate(all="ignore"):
            for j, value in enumerate(self._values(list(np.ascontiguousarray(points.T)), fsum)):
                stacked[:, j] = value
        failed = np.flatnonzero(~np.isfinite(stacked).all(axis=1)).tolist()
        failures = {i: self._failure(points[i]) for i in failed}
        return np.take(stacked, gather_index(self.entries, self.frame.dim), axis=1), failures

    def _failure(self, point):
        """The DomainError with which the trees fail at a point where a
        value of the coefficients is not finite.  Where the trees evaluate
        (an fsum whose partial sums overflow in one order of its terms and
        not in the trees'), the error the trees give for a node that is
        not finite."""
        try:
            self.connection().christoffel_at(point)
        except DomainError as e:
            return e.with_traceback(None)
        return DomainError("intermediate value is not finite")

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


@functools.cache
def _factor_columns(names):
    """For each monomial of `_monomial_cores(names)`, the columns of its two
    factors in a point extended by a last column of 1.0: its factors in
    the core's order, then that column for each missing one; as an int
    array (2, monomials)."""
    l = len(names)
    return np.array([(*factors, l, l)[:2] for factors in _monomial_factors(names)]).T


@functools.cache
def _mirrors(l):
    """The places in a flat (l, l, l) array of each `_candidate_keys(l)`
    entry: [A-1][C-1][B-1], and its mirror [B-1][C-1][A-1]."""
    a, b, c = (np.array(_candidate_keys(l)) - 1).T
    return (a * l + c) * l + b, (b * l + c) * l + a


def christoffel_stack(frame, terms, points):
    """The Christoffel arrays of K random connections on `frame`, each at a
    point of its own: from `terms`, the arrays (row, slot, thousandths,
    monomial index) of `Walked.stacked_terms`, and a (K, l) point array,
    the (K, l, l, l) stack whose row r is, bit for bit, what
    `PolynomialConnection.christoffel_at` gives for the connection of row r
    at points[r]; and the failures, a mapping from each row where a value
    is not finite to the trees' DomainError there.

    All terms are taken at once, with the float operations of
    `PolynomialConnection._values`: a term is (k/1000 * x_f1) * x_f2, with
    1.0 for a missing factor; an entry of one term is that term, of two
    (a + b) + 0.0, of more their `math.fsum`; an entry whose terms all
    cancel is 0.0."""
    row, slot, k, index = terms
    points = np.asarray(points, dtype=float)
    count, l = points.shape
    columns = np.ones((count, l + 1))
    columns[:, :l] = points
    first, second = _factor_columns(frame.names)[:, index]
    with np.errstate(all="ignore"):
        values = (k / 1000 * columns[row, first]) * columns[row, second]
        starts = np.flatnonzero(np.diff(row * len(_candidate_keys(l)) + slot, prepend=-1))
        sizes = np.diff(starts, append=len(values))
        sums = values[starts]
        two = starts[sizes == 2]
        sums[sizes == 2] = (values[two] + values[two + 1]) + 0.0
        many = np.flatnonzero(sizes > 2)
        if len(many):
            listed = values.tolist()
            sums[many] = expr._each(math.fsum, [listed[s:s + n] for s, n in
                                                zip(starts[many].tolist(), sizes[many].tolist())])
    flat = np.zeros((count, l ** 3))
    rows, slots = row[starts], slot[starts]
    for places in _mirrors(l):
        flat[rows, places[slots]] = sums
    failures = {}
    keys = _candidate_keys(l)
    for r in np.unique(rows[~np.isfinite(sums)]).tolist():
        entries = {}
        for s, i, t in zip(*(a[row == r].tolist() for a in (slot, index, k))):
            entries.setdefault(keys[s], {})[i] = t
        failures[r] = PolynomialConnection(frame, entries)._failure(points[r])
    return flat.reshape(count, l, l, l), failures


def draw_connection(frame, rng, fill=0.6):
    """Random polynomial Christoffels on a fraction `fill` of the
    independent components, as a `PolynomialConnection`: the walk of one
    `connection_draw`, where for each (A, B, C) with A <= B in order one
    double decides whether the entry is stored, and a stored entry's
    polynomial is drawn at once.  `rng` is as for `draw_polynomials`."""
    keys = _candidate_keys(frame.dim)
    drawn = _walk(rng, [(connection_draw(frame, fill),)]).polynomials(0, 0)
    return PolynomialConnection(frame, {keys[slot]: thousandths for slot, thousandths in drawn.items()})


def random_connection(frame, rng, fill=0.6):
    """The `Connection` of `draw_connection(frame, rng, fill)`."""
    return draw_connection(frame, rng, fill).connection()


def random_expressions(names, rng, count):
    """The trees of `draw_polynomials(names, rng, count)`."""
    cores = _monomial_cores(tuple(names))
    return [_polynomial(cores, thousandths) for thousandths in draw_polynomials(names, rng, count)]


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
                        rejected, error = _rejected(rejected, gate)
                        if error is not None:
                            raise error
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
