"""Deterministic randomness and random test objects.

All randomness in the package flows through numpy Generators seeded by a
single 64-bit seed plus a stream index, so parallel and serial runs of the
same configuration draw identical numbers.

One reader draws ahead of a generator's calls.  A `WordStream` reads the
generator's raw 64-bit words in chunks, by the rules numpy's Generator
applies to them, and leaves the generator where the same calls would.
It serves `random` and `uniform`, `peek` and `skip` over the numbers of
``uniform(-1, 1, size)`` calls, and its `walk` reads the draws of many
samples, each a tuple of `Polynomials` (random polynomials and
connections) and `Draw`s (uniform arrays, gated or not), in one loop over
the words.  The acceptance criteria, the sampled checks and `cover-check`
read their batches of draws through one, and `draw_connection` and
`draw_polynomials` are walks of one sample.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from typing import Mapping

import numpy as np

from . import expr
from .connections import Connection, gather_index, shift_parts
from .errors import _REDRAWS_PER_SAMPLE, DomainError, gave_up
from .expr import CoordinateFrame, Mul, Sym
from .jets import SubJet


def spawn_rng(seed, index=0):
    """Generator for stream `index` of the run seeded by `seed`."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))))


# raw words a `WordStream` reads from the bit generator at a time, and the
# most a walk turns into Python lists at a time
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
    calls on `rng` return, bit for bit, whose `peek` and `skip` serve the
    numbers of ``uniform(-1, 1, size)`` calls to a caller that looks at
    them before it knows how many it takes, and whose `walk` reads the
    random polynomials and uniform arrays of many samples as the
    per-sample calls read them; when the block ends, normally or by an
    exception, `rng` is left in the state those calls would have left.

    The words come in chunks, read ahead from the bit generator itself,
    and each draw is the fixed function of them that numpy's Generator
    computes (numpy 2.4.6): a double is ``(w >> 11) * 2**-53``; a 32-bit
    draw is the buffered high half of the last word split, or else the low
    half of a new word whose high half is buffered; ``integers(low,
    high)`` is Lemire's bounded draw on 32-bit draws.  The block's end
    sets the bit generator back to its state at the start, with the
    buffered half the draws leave, and advances it over the words they
    consumed; a caller that owns its generator and discards it needs no
    block."""

    def __init__(self, rng):
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, _WORD_BIT_GENERATORS):
            names = ", ".join(kind.__name__ for kind in _WORD_BIT_GENERATORS)
            raise TypeError(f"WordStream reads a {names} bit generator, not {type(bit_generator).__name__}")
        self._bit_generator, self._state = bit_generator, bit_generator.state
        self._has_half, self._half = bool(self._state["has_uint32"]), self._state["uinteger"]
        self._read = 0
        self._set_chunk(np.empty(0, np.uint64))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        state, bit_generator = self._state, self._bit_generator
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        bit_generator.state = state
        bit_generator.random_raw(self._read - (self._end - self._pos), output=False)

    def _fresh(self, count):
        """The next `count` words of the bit generator."""
        self._read += count
        return self._bit_generator.random_raw(count)

    def _set_chunk(self, words):
        """Serve the draws from these words on."""
        self._words, self._pos, self._end = words, 0, len(words)
        self._doubles = self._halves = self._numbers = None

    def _ahead(self, count):
        """The chunk's words from the next on, at least `count` of them:
        where the chunk has fewer, it becomes its unread words and fresh
        ones (so `_pos` stays the index of the next word), at least a
        chunk of them after the block's first read."""
        if self._pos + count > self._end:
            fresh = self._fresh(max(self._pos + count - self._end, _WORDS_PER_CHUNK if self._read else 0))
            self._set_chunk(np.concatenate([self._words[self._pos:], fresh]) if self._pos < self._end else fresh)
        return self._words[self._pos:]

    def _chunk_doubles(self):
        """The chunk's doubles, as a list made when first asked for."""
        if self._doubles is None:
            self._doubles = _doubles(self._words).tolist()
        return self._doubles

    def _chunk_halves(self):
        """The chunk's 32-bit halves, low then high of each word, as a list
        made when first asked for."""
        if self._halves is None:
            self._halves = self._words.astype("<u8").view("<u4").tolist()
        return self._halves

    def _uniforms(self, start, stop):
        """``uniform(-1, 1)`` of the words `start` to `stop` from the next,
        -1 + 2 d for a word's double d (2 d, (w >> 11) * 2**-52, is exact),
        as an array: a slice of the chunk's, made when first asked for."""
        self._ahead(stop)
        if self._numbers is None:
            self._numbers = (self._words >> 11) * 2.0 ** -52
            self._numbers -= 1.0
        return self._numbers[self._pos + start:self._pos + stop]

    def random(self):
        """``rng.random()``: one word's double in [0, 1)."""
        if self._pos == self._end:
            self._set_chunk(self._fresh(_WORDS_PER_CHUNK))
        self._pos += 1
        return self._chunk_doubles()[self._pos - 1]

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
            doubles = self._chunk_doubles()[start:self._pos]
        else:
            doubles = self._chunk_doubles()[start:self._end]
            self._set_chunk(self._fresh(max(count - len(doubles), _WORDS_PER_CHUNK)))
            self._pos = count - len(doubles)
            doubles += self._chunk_doubles()[:self._pos]
        return np.array([low + scale * d for d in doubles]).reshape(shape)

    def peek(self, count):
        """The numbers of the next ``uniform(-1, 1, count)`` call, as an
        array, without consuming them."""
        return self._uniforms(0, count)

    def skip(self, count):
        """Consume `count` numbers of `peek`."""
        self._pos += count

    def walk(self, layouts):
        """The draws of `layouts`, one tuple of `Polynomials` and `Draw`
        items per sample, read in order as the per-sample calls read them,
        as a `Walked`.  A `Draw` reads as ``uniform(-1, 1, shape)`` calls,
        with a gated first array redrawn as `Draw` says.

        One Python loop does index arithmetic on the words and decides
        only what moves the rest: each fill, each term count and each gate.
        An entry's terms take the 32-bit halves that follow its count, one
        after another, so the loop places them without reading them; then
        each term's thousandths and monomial index are read from its half
        by Lemire's method, by numpy for a walk of more than
        `_ENTRIES_READ_ONE_BY_ONE` entries and in Python below.  Where
        that method rejects a half (about one in two million, or a zero
        half), the entry's terms take one more half, and the loop runs
        again with that entry's run known.

        A gate decides a candidate's n x n block as the per-sample draw's
        `np.linalg.det` does, by the rule of `_block_regular`.  In a walk
        with a `Polynomials` item the candidates are few among the words,
        and it decides each alone (`_block_regular`); in a walk of `Draw`s
        alone nearly every offset can start one, and it decides all offsets
        of a stretch of words at once (`_regular`): one and a half times
        the words that the samples left accept (rejections add about a
        fifth), and a new stretch from where one runs out.  A draw
        rejected 100 times raises the DomainError with which
        `draw_regular` gives up its per-sample sampler, after consuming
        what it read."""
        plans = dict(zip(map(id, layouts), layouts))
        for key, layout in plans.items():
            plans[key] = tuple(map(_plan, layout))
        kinds = {item[0] for plan in plans.values() for item in plan}
        chunk, runs = self._words, {}
        while True:
            p, has_half, hp, entries, starts, error = self._pass(layouts, plans, runs, True not in kinds)
            read = self._terms(entries, runs, p)
            if read is not None:
                entries, terms = read
                break
        numbers = self._uniforms(0, p) if False in kinds else None
        words = self._ahead(p)
        if hp:
            self._half = int(words[(hp - 1) >> 1]) >> 32
        self._has_half = has_half
        if self._words is chunk:
            self._pos += p
        else:
            self._set_chunk(words[p:])
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
        halves[0], halves[1:] = self._half, self._ahead(p)[:p].astype("<u8", copy=False).view("<u4")
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
        chunk's list where the chunk holds them."""
        if words <= self._end - self._pos:
            return self._chunk_halves(), 2 * self._pos - 1
        return [self._half] + self._ahead(words)[:words].astype("<u8").view("<u4").tolist(), 0

    def _pass(self, layouts, plans, runs, stacked):
        """One run of `walk`'s loop, where entry e's terms take runs[e]
        halves and, if `stacked`, gates take their dets in stretches: the
        next word, whether a half is buffered, the position of the high
        half of the last word split, the entries (sample, item, slot,
        position of its first term's half, term count, monomials), the
        start of each item of each sample in turn (-1 for `Polynomials`),
        and the DomainError of a gate that gave up, else None.

        Words count from the walk's first; half 0 is the one buffered
        before the walk, and halves 2w + 1 and 2w + 2 are the low and high
        halves of word w.  The words in hand, as Python lists, start at
        the buffered half's word, so a term count can read it; the first
        are the rest of the stream's chunk.  A walk that takes its dets in
        stretches reads no lists."""
        half0, p, has_half, hp = self._half, 0, self._has_half, 0
        window = self._window
        base, end = -self._pos, self._end - self._pos
        doubles, halves = (None, None) if stacked else (self._chunk_doubles(), self._chunk_halves())
        lo = hi = det_n = 0
        entries, starts = [], []
        append = entries.append
        for i, layout in enumerate(map(plans.__getitem__, map(id, layouts))):
            for j, plan in enumerate(layout):
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
                    starts.append(-1)
                    continue
                _, accepted, rejected, n, gate = plan
                if gate is not None:
                    tries = 0
                    while True:
                        if stacked:
                            if p >= hi or n != det_n:
                                span = 3 * (len(layouts) - i) * sum(item[1] for item in layout) // 2
                                lo, hi, det_n, regular = p, p + span, n, self._regular(p, n, span)
                            if regular[p - lo]:
                                break
                        else:
                            if p + n * n > end:
                                base, end, doubles, halves = window((hp - 1) >> 1 if has_half and hp else p, p + n * n)
                            if _block_regular(doubles, p - base, n):
                                break
                        p += rejected
                        tries, error = _rejected(tries, gate)
                        if error is not None:
                            return p, has_half, hp, entries, starts, error
                starts.append(p)
                p += accepted
        return p, has_half, hp, entries, starts, None

    def _regular(self, start, n, count):
        """Whether |det| >= MIN_DET for the n x n block at each of `count`
        offsets of the walk's words from `start`, as a list: by the rule of
        `_block_regular` over all offsets at once, with one stacked
        `np.linalg.det` (the same bits as one det per block) where it takes
        LAPACK's."""
        numbers = self._uniforms(start, start + count + n * n - 1)
        if n <= 2:
            dets = np.abs(numbers[:count] if n == 1 else
                          numbers[:count] * numbers[3:count + 3] - numbers[1:count + 1] * numbers[2:count + 2])
            regular = dets >= MIN_DET
            at = np.flatnonzero(np.abs(dets - MIN_DET) <= _DET_MARGIN)
        else:
            regular, at = np.empty(count, bool), np.arange(count)
        if len(at):
            blocks = numbers[np.add.outer(at, np.arange(n * n))].reshape(len(at), n, n)
            regular[at] = np.abs(np.linalg.det(blocks)) >= MIN_DET
        return regular.tolist()

    def _window(self, start, need):
        """Words `start` to at least `need` of the walk, for `_pass`: their
        start and end, and their doubles and halves as lists."""
        end = max(need, start + _WORDS_PER_CHUNK)
        words = self._ahead(end)[start:end]
        return start, end, _doubles(words).tolist(), words.astype("<u8").view("<u4").tolist()


# how near MIN_DET a closed-form |det| must lie for a gate to take LAPACK's
# det instead (see `_block_regular`)
_DET_MARGIN = 1e-12


def _block_regular(doubles, at, n):
    """A gate's decision, |det| >= MIN_DET, for the n x n block of the
    uniform numbers -1 + 2d of the doubles d from doubles[at], row after
    row.

    This is the one statement of the rule the gates decide by.  The
    entries are exact and lie in [-1, 1].  For n <= 2 the closed form, |a|
    or |ad - bc|, is within about 1e-15 of the exact |det|, and so is
    `np.linalg.det`'s (an LU, then sign * exp(sum log|u_ii|), which differs
    from a 1 x 1 entry in the last bit for about 15% of draws).  So where
    the closed form lies farther than `_DET_MARGIN` from MIN_DET both decide
    alike, and the closed form decides; within the margin, and for n >= 3,
    `np.linalg.det` decides, as the per-sample draw does."""
    if n == 1:
        det = abs(-1.0 + 2.0 * doubles[at])
    elif n == 2:
        a, b, c, d = (-1.0 + 2.0 * x for x in doubles[at:at + 4])
        det = abs(a * d - b * c)
    if n > 2 or abs(det - MIN_DET) <= _DET_MARGIN:
        block = -1.0 + 2.0 * np.array(doubles[at:at + n * n]).reshape(n, n)
        det = abs(np.linalg.det(block))
    return det >= MIN_DET


def _rejected(tries, gate):
    """The count of a gated draw's rejected candidates, `tries`, after one
    more, and the DomainError with which `draw_regular` gives up its
    per-sample sampler at the 100th, else None: the rule of a walk's
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
    `Polynomials` draws them: None for the constant, then each name,
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


@functools.cache
def _plan(item):
    """The numbers by which `WordStream._pass` reads a layout item."""
    if isinstance(item, Polynomials):
        return True, item.count, item.fill, item.size
    return False, item.accepted, item.rejected, item.shapes[0][-1], item.gate


class Walked:
    """The draws a walk read, over its samples.

    `numbers` holds the uniform number -1 + 2d of each word's double d
    (None where the walk read no `Draw`), and `starts`, item after item of
    one sample after another, the offset in it of the arrays of each
    `Draw` (-1 at a `Polynomials` item).  `entries` lists the (sample,
    item, slot, ...) of each stored polynomial and `terms` the (entry,
    thousandths, monomial index) of each drawn term, both in the order
    drawn.  Each of the three is an int array or a list, made an array
    when first needed as one."""

    def __init__(self, layouts, numbers, starts, entries, terms):
        self.layouts, self.numbers, self.starts = layouts, numbers, starts
        self.entries, self.terms = entries, terms
        self._firsts = self._polynomials = None

    def offsets(self, j, samples):
        """The offsets in `numbers` of the arrays of item j at `samples`,
        an int array broadcast over both (j may be an array of items)."""
        if self._firsts is None:
            self.starts = np.asarray(self.starts, dtype=np.int64)
            self._firsts = np.array([0, *accumulate(map(len, self.layouts))])
        return self.starts[self._firsts[samples] + j]

    def parts(self, j, samples):
        """The arrays of `Draw` j, the same at each of `samples`, stacked
        along them in the order drawn (see `Draw.parts`)."""
        return self.layouts[samples[0]][j].parts(self.numbers, self.offsets(j, samples))

    def polynomials(self, j, sample):
        """The stored polynomials of item j at one sample, by slot in the
        order drawn: each a dict from monomial index to the thousandths
        drawn for it, summed, in first-drawn order (a sum may cancel to
        0).  The first call groups the polynomials of every sample and item
        in one pass over the entries and terms."""
        if self._polynomials is None:
            self._polynomials, drawn = {}, []
            for row in _rows(self.entries):
                drawn.append(self._polynomials.setdefault((row[0], row[1]), {}).setdefault(row[2], {}))
            for e, k, index in _rows(self.terms):
                drawn[e][index] = drawn[e].get(index, 0) + k
        return self._polynomials.get((sample, j), {})

    def connection(self, j, sample, frame):
        """The `PolynomialConnection` on `frame` that item j, a
        `connection_draw(frame)`, drew at one sample."""
        keys = _candidate_keys(frame.dim)
        return PolynomialConnection(frame, {keys[slot]: t for slot, t in self.polynomials(j, sample).items()})

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
        rank = np.full(len(self.layouts), -1)
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
    """The Christoffel arrays of K random connections on `frame`, each at
    points of its own: from `terms`, the arrays (row, slot, thousandths,
    monomial index) of `Walked.stacked_terms`, or with a fifth, `nested`,
    those of `polynomial_terms`, and a (K, l) point array, the (K, l, l, l)
    stack whose row r is, bit for bit, what
    `PolynomialConnection.christoffel_at` gives for the connection of row r
    at points[r]; and the failures, a mapping from each row where a value
    is not finite to the trees' DomainError there.  A (K, P, l) point array
    gives connection r at each of points[r], stacked (K, P, l, l, l), and
    failures keyed (r, p).

    All terms are taken at once, with the float operations of
    `PolynomialConnection._values`: a term is (k/1000 * x_f1) * x_f2, with
    1.0 for a missing factor; an entry of one term is that term, of two
    (a + b) + 0.0, of more their `math.fsum` (of three, its bits from
    `_three_sums` where that gives them, see `_entry_sums`); an entry
    whose terms all cancel is 0.0.  The nested terms of an entry sum by the same rule,
    and -1.0 times that sum is one more term of the entry."""
    row, slot, k, index, *rest = terms
    nested = rest[0].astype(bool) if rest else np.zeros(len(row), bool)
    points = np.asarray(points, dtype=float)
    l = frame.dim
    grid = points.reshape(len(points), -1, l)
    columns = np.ones(grid.shape[:2] + (l + 1,))
    columns[..., :l] = grid
    first, second = _factor_columns(frame.names)[:, index]
    slots = len(_candidate_keys(l))
    key = row * slots + slot
    with np.errstate(all="ignore"):
        values = (k[:, None] / 1000 * columns[row, :, first]) * columns[row, :, second]
        if nested.any():
            starts, sums = _entry_sums(key[nested], values[nested])
            key = np.concatenate([key[~nested], key[nested][starts]])
            values = np.concatenate([values[~nested], -1.0 * sums])
            order = np.argsort(key, kind="stable")
            key, values = key[order], values[order]
        starts, sums = _entry_sums(key, values)
    flat = np.zeros(grid.shape[:2] + (l ** 3,))
    rows = key[starts] // slots
    for places in _mirrors(l):
        flat[rows, :, places[key[starts] % slots]] = sums
    failures = {}
    keys = _candidate_keys(l)
    bad, at = np.nonzero(~np.isfinite(sums))
    for r, p in sorted(set(zip(rows[bad].tolist(), at.tolist()))):
        entries, subtracted = {}, {}
        for s, i, t, inside in zip(*(a[row == r].tolist() for a in (slot, index, k, nested))):
            part = entries.setdefault(keys[s], {})
            if inside:
                part = subtracted.setdefault(keys[s], {})
            part[i] = t
        failure = PolynomialConnection(frame, entries, subtracted)._failure(grid[r, p])
        failures[(r, p) if points.ndim == 3 else r] = failure
    return flat.reshape(points.shape[:-1] + (l, l, l)), failures


def _entry_sums(key, values):
    """The start of each run of equal keys among the rows of `values`
    (terms by points), and the sum of each run at each point by the rule
    of `christoffel_stack`: one term as it is, two as (a + b) + 0.0, more
    by `math.fsum`, NaN where fsum raises.  Three terms take fsum's bits
    from `_three_sums`, over all points at once, and call `math.fsum` only
    where `_three_sums` leaves the sum to it."""
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    sizes = np.diff(starts, append=len(key))
    sums = values[starts]
    two = starts[sizes == 2]
    sums[sizes == 2] = (values[two] + values[two + 1]) + 0.0
    three = starts[sizes == 3]
    if len(three):
        terms = values[three[:, None] + np.arange(3)]
        total, fallback = _three_sums(*terms.transpose(1, 0, 2))
        at = np.nonzero(fallback)
        total[at] = expr._each(math.fsum, terms.transpose(0, 2, 1)[at].tolist())
        sums[sizes == 3] = total
    for n in np.unique(sizes[sizes > 3]).tolist():
        runs = starts[sizes == n]
        terms = values[runs[:, None] + np.arange(n)].transpose(0, 2, 1).reshape(-1, n)
        sums[sizes == n] = np.reshape(expr._each(math.fsum, terms.tolist()), (len(runs), -1))
    return starts, sums


def _two_sum(a, b):
    """Knuth's TwoSum: s = a + b rounded, and the error a + b - s, exact
    where nothing overflows."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _three_sums(a, b, c):
    """a + b + c correctly rounded to nearest (ties to even) at each place
    of three float arrays, which is what `math.fsum` gives, and a mask of
    the places where `math.fsum` must decide instead: the result is zero
    (fsum's sign of a zero sum), not finite (fsum's infinities, NaN and
    errors), or a term reaches 2^1020 (fsum raises where a partial sum
    overflows, as in [MAX, MAX, -MAX], though the exact sum does not).

    Boldo and Melquiond, "Emulation of FMA and correctly rounded sums:
    proved algorithms using rounding to odd" (IEEE Trans. Computers 57(4),
    2008): two TwoSums give th + tl + ul = a + b + c exactly; tl + ul is
    rounded to odd (TwoSum, then one step in the int64 view to the odd
    neighbour on the side of the exact value where the rounded sum is
    inexact and even); and th plus that, rounded to nearest, is the
    correctly rounded sum."""
    uh, ul = _two_sum(b, c)
    th, tl = _two_sum(a, uh)
    v, error = _two_sum(tl, ul)
    bits = v.view(np.int64)
    inexact = (error != 0) & (bits & 1 == 0)
    bits[inexact] += np.where((error > 0) == (v > 0), 1, -1)[inexact]
    total = th + v
    largest = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    return total, ~np.isfinite(total) | (total == 0) | (largest >= 2.0 ** 1020)


def polynomial_terms(connections):
    """The terms of `PolynomialConnection`s on one frame for
    `christoffel_stack`, row r for connections[r]: arrays (row, slot,
    thousandths, monomial index, nested), each entry's terms and then,
    marked nested, those of the polynomial it subtracts.  Thousandths of 0
    are dropped, as `_values` drops them."""
    flat = []
    for r, g in enumerate(connections):
        slots = _slots(g.dim)
        for key, thousandths in g.entries.items():
            for nested, polynomial in enumerate((thousandths, g.subtracted.get(key, {}))):
                for index, k in polynomial.items():
                    if k:
                        flat += (r, slots[key], k, index, nested)
    return tuple(np.array(flat, dtype=np.int64).reshape(-1, 5).T)


@functools.cache
def _slots(l):
    """The slot of each (A, B, C) of `_candidate_keys(l)`."""
    return {key: slot for slot, key in enumerate(_candidate_keys(l))}


def draw_connection(frame, rng, fill=0.6):
    """Random polynomial Christoffels on a fraction `fill` of the
    independent components, as a `PolynomialConnection`: the walk of one
    `connection_draw`, where for each (A, B, C) with A <= B in order one
    double decides whether the entry is stored, and a stored entry's
    polynomial is drawn at once.  `rng` is as for `draw_polynomials`."""
    return _walk(rng, [(connection_draw(frame, fill),)]).connection(0, 0, frame)


def random_connection(frame, rng, fill=0.6):
    """The `Connection` of `draw_connection(frame, rng, fill)`."""
    return draw_connection(frame, rng, fill).connection()


# the least |det| of the n x n block that a walk's gates accept (see `Draw`)
MIN_DET = 0.3


@dataclass(frozen=True)
class Draw:
    """What one per-sample draw reads from a generator, as
    ``uniform(-1, 1, shape)`` calls: arrays of `shapes`, in order.  With a
    `gate` (why a candidate is rejected), the first array is a candidate,
    redrawn until the n x n matrix at its start has |det| >= MIN_DET, as
    `np.linalg.det` decides it; a rejected candidate reads that array
    alone.  `WordStream.walk` reads it for many samples at once, and
    decides its gates by the closed-form |det| of `_block_regular` away
    from MIN_DET."""

    shapes: tuple
    gate: str = None

    @property
    def accepted(self):
        return sum(math.prod(shape) for shape in self.shapes)

    @property
    def rejected(self):
        return math.prod(self.shapes[0])

    def parts(self, numbers, starts):
        """The arrays of the draws at `starts`, offsets in `numbers` (as a
        `Walked` holds them), in the order drawn, each stacked along the
        axes of `starts`."""
        starts = np.asarray(starts)
        drawn, offset, parts = numbers[starts[..., None] + np.arange(self.accepted)], 0, []
        for shape in self.shapes:
            width = math.prod(shape)
            parts.append(np.ascontiguousarray(drawn[..., offset:offset + width]).reshape(*starts.shape, *shape))
            offset += width
        return tuple(parts)


_SECJET_GATE = "base-direction block of the section jet is near singular"
_AFFINE_GATE = "linear part of the affine map is near singular"


@functools.cache
def secjet1_draw(n, l):
    """The `Draw` of a random order-1 section jet whose base-direction block
    is comfortably invertible (admissible for the covering projections):
    first (l, n), redrawn until |det first[:n]| >= MIN_DET, then x (n) and
    u (l)."""
    return Draw(((l, n), (n,), (l,)), _SECJET_GATE)


@functools.cache
def affine_draw(n):
    """The `Draw` of a random affine map x -> a x + b of the parameter
    space: a (n, n), redrawn until |det a| >= MIN_DET, then b (n)."""
    return Draw(((n, n), (n,)), _AFFINE_GATE)


@functools.cache
def subjet1_draw(n, m):
    """The `Draw` of `random_subjet1`: base (n + m), then first (m, n)."""
    return Draw(((n + m,), (m, n)))


def subjet1_stream(n, m, stream, k):
    """The next k order-1 submanifold jets of a `WordStream`, as k
    `random_subjet1(n, m, rng)` calls draw them from its generator: (base,
    first), stacked (k, n + m) and (k, m, n)."""
    return stream.walk([(subjet1_draw(n, m),)] * k).parts(0, np.arange(k))


def secjet1_stream(n, l, stream, k):
    """The next k order-1 section jets of a `WordStream`, drawn by
    `secjet1_draw(n, l)`: (x, u, first), stacked (k, n), (k, l) and (k, l,
    n)."""
    first, x, u = stream.walk([(secjet1_draw(n, l),)] * k).parts(0, np.arange(k))
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
