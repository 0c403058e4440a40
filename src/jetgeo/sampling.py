"""Deterministic randomness and random test objects.

All randomness in the package flows through numpy Generators seeded by a
single 64-bit seed plus a stream index, so parallel and serial runs of the
same configuration draw identical numbers.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from . import expr
from .connections import Connection
from .errors import DomainError
from .expr import Const, Mul, Sym
from .jets import AffineMap, SecJet, SubJet


def spawn_rng(seed, index=0):
    """Generator for stream `index` of the run seeded by `seed`."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))))


def random_polynomial(names, rng, degree=2, max_terms=3, scale=1.0):
    """Random polynomial over the names: up to max_terms monomials of total
    degree <= degree with rational coefficients drawn from [-scale, scale]."""
    monomials = [()]
    for d in range(1, degree + 1):
        monomials.extend(combinations_with_replacement(range(len(names)), d))
    k = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(k):
        coeff = Fraction(int(rng.integers(-1000, 1001)), 1000) * Fraction(scale).limit_denominator(1000)
        mono = monomials[int(rng.integers(0, len(monomials)))]
        factors = (Const(coeff),) + tuple(Sym(names[i]) for i in mono)
        terms.append(Mul(factors))
    return expr.simplify(expr.Add(tuple(terms)))


def random_connection(frame, rng, degree=2, fill=0.6, scale=1.0):
    """Connection with random polynomial Christoffels on a fraction `fill`
    of the independent components."""
    l = frame.dim
    entries = {}
    for a in range(1, l + 1):
        for b in range(a, l + 1):
            for c in range(1, l + 1):
                if rng.uniform() < fill:
                    entries[(a, b, c)] = random_polynomial(frame.names, rng, degree, scale=scale)
    return Connection(frame, entries)


def random_expressions(names, rng, count, degree=2):
    return [random_polynomial(names, rng, degree) for _ in range(count)]


def random_point(g, rng, low=-1.0, high=1.0, tries=100):
    """Point in [low, high]^l where every Christoffel entry evaluates and
    which stays away from the connection's declared singular points."""
    for _ in range(tries):
        point = rng.uniform(low, high, g.dim)
        if any(np.linalg.norm(point - np.asarray(s)) < 1e-6 for s in g.singular_points):
            continue
        try:
            g.christoffel_at(point)
        except DomainError:
            continue
        return point
    raise DomainError("could not sample a regular point for the connection")


def random_subjet1(n, m, rng, base=None):
    """Random order-1 submanifold jet with coordinates in [-1, 1]."""
    if base is None:
        base = rng.uniform(-1.0, 1.0, n + m)
    return SubJet(n, m, base, rng.uniform(-1.0, 1.0, (m, n)))


def random_secjet1(n, l, rng, min_det=0.3, x=None, u=None, tries=200):
    """Random order-1 section jet whose base-direction derivative block is
    comfortably invertible (admissible for the covering projections)."""
    for _ in range(tries):
        first = rng.uniform(-1.0, 1.0, (l, n))
        if abs(np.linalg.det(first[:n, :])) < min_det:
            continue
        xx = rng.uniform(-1.0, 1.0, n) if x is None else np.asarray(x, dtype=float)
        uu = rng.uniform(-1.0, 1.0, l) if u is None else np.asarray(u, dtype=float)
        return SecJet(n, l, xx, uu, first)
    raise DomainError("could not sample an admissible section jet")


def random_secjet2(n, l, rng, min_det=0.3):
    """Random admissible order-2 section jet."""
    second = rng.uniform(-1.0, 1.0, (l, n, n))
    second = 0.5 * (second + np.transpose(second, (0, 2, 1)))
    return random_secjet1(n, l, rng, min_det).with_second(second)


def random_affine(n, rng, min_det=0.3, tries=200):
    """Random invertible affine map of the parameter space."""
    for _ in range(tries):
        a = rng.uniform(-1.0, 1.0, (n, n))
        if abs(np.linalg.det(a)) < min_det:
            continue
        return AffineMap(a, rng.uniform(-1.0, 1.0, n))
    raise DomainError("could not sample an invertible affine map")
