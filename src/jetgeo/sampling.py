"""Deterministic randomness and random test objects.

All randomness in the package flows through numpy Generators seeded by a
single 64-bit seed plus a stream index, so parallel and serial runs of the
same configuration draw identical numbers.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from . import expr
from .connections import Connection
from .errors import DomainError, SingularJacobianError, draw_regular
from .expr import Mul, Sym
from .jets import AffineMap, SecJet, SubJet


def spawn_rng(seed, index=0):
    """Generator for stream `index` of the run seeded by `seed`."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))))


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


def random_polynomial(names, rng):
    """Random polynomial over the names: one to three monomials of total
    degree <= 2, each with a coefficient k/1000, k drawn from
    [-1000, 1000].  The terms are collected straight into `simplify`'s
    normal form; the result equals, and is marked as, what `simplify`
    gives for their sum."""
    cores = _monomial_cores(tuple(names))
    thousandths = {}
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(-1000, 1001))
        index = int(rng.integers(0, len(cores)))
        thousandths[index] = thousandths.get(index, 0) + k
    constant = Fraction(thousandths.pop(0, 0), 1000)
    return expr.normal_sum([(cores[i], Fraction(k, 1000)) for i, k in thousandths.items()], constant)


def random_connection(frame, rng, fill=0.6):
    """Connection with random polynomial Christoffels on a fraction `fill`
    of the independent components."""
    l = frame.dim
    entries = {}
    for a in range(1, l + 1):
        for b in range(a, l + 1):
            for c in range(1, l + 1):
                if rng.random() < fill:
                    entries[(a, b, c)] = random_polynomial(frame.names, rng)
    return Connection(frame, entries)


def random_expressions(names, rng, count):
    return [random_polynomial(names, rng) for _ in range(count)]


class UniformStream:
    """The numbers of successive ``rng.uniform(-1.0, 1.0, size)`` calls, read
    ahead from buffered draws of the generator, for a caller that owns its
    generator and must look at numbers before it knows how many it consumes.

    ``rng.uniform(-1, 1, (k, l))`` gives what k calls ``rng.uniform(-1, 1, l)``
    give, so what is consumed lines up with those calls; the generator
    itself runs ahead of it."""

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


def secjet1_arrays(n, l, rng, min_det=0.3):
    """The (x, u, first) of a random order-1 section jet whose base-direction
    derivative block is comfortably invertible (admissible for the covering
    projections): `first` is redrawn until |det first[:n]| >= min_det, then
    x and u are drawn."""

    def draw():
        first = rng.uniform(-1.0, 1.0, (l, n))
        if abs(np.linalg.det(first[:n, :])) < min_det:
            raise SingularJacobianError("base-direction block of the section jet is near singular")
        return rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, l), first

    return draw_regular(draw, 1)[0][0]


def random_secjet1(n, l, rng, min_det=0.3):
    """Random order-1 section jet drawn by `secjet1_arrays`."""
    return SecJet(n, l, *secjet1_arrays(n, l, rng, min_det))


def random_affine(n, rng):
    """Random affine map of the parameter space with |det| >= 0.3."""

    def draw():
        a = rng.uniform(-1.0, 1.0, (n, n))
        if abs(np.linalg.det(a)) < 0.3:
            raise SingularJacobianError("linear part of the affine map is near singular")
        return AffineMap(a, rng.uniform(-1.0, 1.0, n))

    return draw_regular(draw, 1)[0][0]
