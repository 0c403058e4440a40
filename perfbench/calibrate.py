"""A fixed reference computation that measures the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, so two runs of the same code can
disagree by more than any useful regression bound.  The closed loop runs
`reference()` between operations and reports op times in units of its
median duration ("ref"), which cancels the drift that slows both alike.
A long op is sampled while it runs, by `Sampler`, since the host's speed
at its ends says little about the seconds in between.

The work is shaped like jetgeo's own, without importing it: an interpreter
that dispatches on isinstance over frozen dataclass nodes with rational
constants, sums with math.fsum and looks names up in a dict; rebuilding,
hashing and sorting terms as a simplifier does; and a few numpy calls on
tiny arrays.  It never changes, so a change to the program cannot move the
unit it is measured in.
"""
from __future__ import annotations

import math
import signal
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class _Const:
    value: Fraction


@dataclass(frozen=True)
class _Sym:
    name: str


@dataclass(frozen=True)
class _Add:
    terms: tuple


@dataclass(frozen=True)
class _Mul:
    factors: tuple


@dataclass(frozen=True)
class _Div:
    num: object
    den: object


def _eval(node, env):
    if isinstance(node, _Const):
        return float(node.value)
    if isinstance(node, _Sym):
        return float(env[node.name])
    if isinstance(node, _Add):
        return math.fsum(_eval(t, env) for t in node.terms)
    if isinstance(node, _Mul):
        out = 1.0
        for f in node.factors:
            out *= _eval(f, env)
        return out
    return _eval(node.num, env) / _eval(node.den, env)


def _sphere_entry(a, names):
    """-2 u_a / (1 + sum u_b^2), the shape of a round-sphere Christoffel."""
    den = _Add((_Const(Fraction(1)),) + tuple(_Mul((_Sym(n), _Sym(n))) for n in names))
    return _Div(_Mul((_Const(Fraction(-2)), _Sym(names[a]))), den)


_NAMES = ("u1", "u2", "u3", "u4")
_TABLE = tuple(_sphere_entry(a, _NAMES) for a in range(len(_NAMES)))
_POINTS = 120
_MATRIX = np.linspace(-1.0, 1.0, 16).reshape(4, 4)


def _rebuild(node):
    """Flattens and sorts a tree's sums and products by a structural key."""
    if isinstance(node, (_Const, _Sym)):
        return node
    if isinstance(node, _Div):
        return _Div(_rebuild(node.num), _rebuild(node.den))
    parts = tuple(sorted((_rebuild(p) for p in getattr(node, "terms", getattr(node, "factors", ()))),
                         key=repr))
    return _Add(parts) if isinstance(node, _Add) else _Mul(parts)


def reference():
    """Runs the reference work once; returns its duration in seconds."""
    start = perf_counter()
    total = 0.0
    for i in range(_POINTS):
        env = {n: Fraction(i + k, _POINTS) for k, n in enumerate(_NAMES)}
        u = np.array([float(v) for v in env.values()])
        total += sum(_eval(entry, env) for entry in _TABLE)
        total += float(np.einsum("ab,b->a", _MATRIX, u) @ u)
    seen = {_rebuild(entry) for entry in _TABLE * 3}
    if len(seen) != len(_TABLE) or total != total:
        raise ArithmeticError("reference work gave an unexpected result")
    return perf_counter() - start


class Sampler:
    """Runs `reference()` every `interval` seconds of wall time while it is
    active, from a timer signal handled between the program's bytecodes.

    `samples` holds every duration measured; `spent` is the wall time taken
    by the handler, which the caller subtracts from the op it timed.
    """

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        start = perf_counter()
        self.samples.append(reference())
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
