"""Symbolic scalar expressions over named coordinates.

A deliberately small, closed node set: exact rational constants, coordinate
symbols, n-ary sums and products, integer powers, quotients, and the
elementary functions sin, cos, exp, sqrt.  Trees are immutable values;
every operation returns a new tree.  Constants stay exact rationals until
numeric evaluation, so identities that hold by cancellation hold exactly.

Simplification is structural only: constant folding, 0/1 absorption,
flattening of sums and products, collection of identical monomials.  There
is no polynomial canonical form.

Besides its fields, a node may carry the attribute `_normal`, set on every
tree `simplify` returns, so that simplifying it again returns it at once.
It only saves work: it takes no part in ==, repr or the hash.
"""
from __future__ import annotations

import itertools
import linecache
import math
import re
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    JetGeoError,
    MissingSymbolError,
    ParseError,
    UnknownSymbolError,
)

FUNCTION_NAMES = ("sin", "cos", "exp", "sqrt")


class Expression:
    """Base node.  Arithmetic operators build raw (unsimplified) trees."""

    __slots__ = ()
    _normal = False     # True on the trees simplify returns

    def __add__(self, other):
        return Add((self, _coerce(other)))

    def __radd__(self, other):
        return Add((_coerce(other), self))

    def __sub__(self, other):
        return Add((self, negate(_coerce(other))))

    def __rsub__(self, other):
        return Add((_coerce(other), negate(self)))

    def __mul__(self, other):
        return Mul((self, _coerce(other)))

    def __rmul__(self, other):
        return Mul((_coerce(other), self))

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponents must be plain integers")
        return Pow(self, exponent)

    def __neg__(self):
        return negate(self)

    def __repr__(self):
        return f"<{type(self).__name__} {to_text(self)}>"


@dataclass(frozen=True, repr=False)
class Const(Expression):
    value: Fraction
    _normal = True

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, repr=False)
class Sym(Expression):
    name: str
    _normal = True


@dataclass(frozen=True, repr=False)
class Add(Expression):
    terms: tuple


@dataclass(frozen=True, repr=False)
class Mul(Expression):
    factors: tuple


@dataclass(frozen=True, repr=False)
class Pow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True, repr=False)
class Div(Expression):
    num: Expression
    den: Expression


@dataclass(frozen=True, repr=False)
class Func(Expression):
    name: str
    arg: Expression


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def _coerce(value):
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    if isinstance(value, float):
        return Const(Fraction(value))
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


def negate(e):
    """-e, folding the sign into a leading rational constant when present."""
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Mul) and e.factors and isinstance(e.factors[0], Const):
        return Mul((Const(-e.factors[0].value),) + e.factors[1:])
    return Mul((Const(Fraction(-1)), e))


@dataclass(frozen=True)
class CoordinateFrame:
    """Ordered coordinate names with a base/fibre split position.

    names[:split] play the base role in a divided chart, names[split:]
    the fibre role.  The split stored here is the chart's declared
    default; operations that take an explicit split use that instead.
    """

    names: tuple
    split: int

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be unique")
        if not self.names:
            raise ValueError("frame needs at least one coordinate")
        if not 1 <= self.split <= len(self.names):
            raise ValueError(f"split {self.split} out of range for dimension {len(self.names)}")
        for name in self.names:
            if not _IDENT_RE.fullmatch(name) or name in FUNCTION_NAMES:
                raise ValueError(f"invalid coordinate name {name!r}")

    @property
    def dim(self):
        return len(self.names)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e, coord):
    """Exact partial derivative of e with respect to the named coordinate.

    Symbols other than `coord` are treated as constants, so the same
    routine serves frame coordinates and external parameters.

    The result is ``simplify(_diff(e, coord))``.  A marked polynomial
    normal form (see `_monomials`) gets it without `simplify`: each term
    c x^a y^b ... gives c a x^(a-1) y^b ..., its factors sorted by `_key`,
    and `normal_sum` collects them, as `simplify` collects the terms of
    the product rule.  Every other tree takes `simplify`.
    """
    terms = _monomials(e) if getattr(e, "_normal", False) else None
    if terms is None:
        return simplify(_diff(e, coord))
    groups, constant = {}, Fraction(0)
    for c, factors in terms:
        for i, f in enumerate(factors):
            if isinstance(f, Sym):
                if f.name != coord:
                    continue
                d, rest = c, factors[:i] + factors[i + 1:]
            elif f.base.name != coord:
                continue
            else:
                lower = f.base if f.exponent == 2 else _marked(Pow(f.base, f.exponent - 1))
                d, rest = c * f.exponent, factors[:i] + (lower,) + factors[i + 1:]
            if not rest:
                constant += d
            else:
                core = rest[0] if len(rest) == 1 else Mul(tuple(sorted(rest, key=_key)))
                groups[core] = groups.get(core, 0) + d
    return normal_sum(groups.items(), constant)


def _monomials(e):
    """The (rational c, factors) of each non-constant term c * factors of
    a polynomial normal form, where every factor is a symbol or a marked
    power of one with an integer exponent >= 2; None for any other tree."""
    terms = []
    for t in e.terms if isinstance(e, Add) else (e,):
        if isinstance(t, Const):
            continue
        factors = t.factors if isinstance(t, Mul) else (t,)
        c = Fraction(1)
        if factors and isinstance(factors[0], Const):
            c, factors = factors[0].value, factors[1:]
        for f in factors:
            if not (isinstance(f, Sym) or isinstance(f, Pow) and f._normal and isinstance(f.base, Sym)
                    and f.exponent >= 2):
                return None
        terms.append((c, factors))
    return terms


def _diff(e, coord):
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == coord else ZERO
    if isinstance(e, Add):
        return Add(tuple(_diff(t, coord) for t in e.terms))
    if isinstance(e, Mul):
        pieces = []
        for i, f in enumerate(e.factors):
            pieces.append(Mul(e.factors[:i] + (_diff(f, coord),) + e.factors[i + 1:]))
        return Add(tuple(pieces))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        return Mul((Const(Fraction(e.exponent)), Pow(e.base, e.exponent - 1), _diff(e.base, coord)))
    if isinstance(e, Div):
        du = _diff(e.num, coord)
        dv = _diff(e.den, coord)
        num = Add((Mul((du, e.den)), negate(Mul((e.num, dv)))))
        return Div(num, Pow(e.den, 2))
    if isinstance(e, Func):
        da = _diff(e.arg, coord)
        if e.name == "sin":
            return Mul((Func("cos", e.arg), da))
        if e.name == "cos":
            return negate(Mul((Func("sin", e.arg), da)))
        if e.name == "exp":
            return Mul((e, da))
        if e.name == "sqrt":
            return Div(da, Mul((Const(Fraction(2)), e)))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e, assignment):
    """Evaluate at a full coordinate assignment, returning a finite float.

    Raises MissingSymbolError for uncovered symbols and DomainError for
    zero denominators, negative sqrt arguments, constants beyond float
    range, overflow, sums of opposite infinities, and sin or cos of an
    infinite value.
    """
    value = _eval(e, assignment)
    if not math.isfinite(value):
        raise DomainError(f"evaluation produced non-finite value {value}")
    return value


def _eval(e, env):
    if isinstance(e, Const):
        try:
            return float(e.value)
        except OverflowError:
            raise DomainError("constant out of float range") from None
    if isinstance(e, Sym):
        try:
            return float(env[e.name])
        except KeyError:
            raise MissingSymbolError(f"no value assigned to '{e.name}'") from None
    if isinstance(e, Add):
        try:
            return _finite(math.fsum(_eval(t, env) for t in e.terms))
        except OverflowError:
            raise DomainError("sum overflow") from None
        except ValueError:
            raise DomainError("sum of opposite infinities") from None
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= _eval(f, env)
        return _finite(out)
    if isinstance(e, Pow):
        base = _eval(e.base, env)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero base with negative exponent")
        try:
            return _finite(base ** e.exponent)
        except OverflowError:
            raise DomainError("power overflow") from None
    if isinstance(e, Div):
        den = _eval(e.den, env)
        if den == 0.0:
            raise DomainError("division by zero")
        return _finite(_eval(e.num, env) / den)
    if isinstance(e, Func):
        arg = _eval(e.arg, env)
        if e.name in ("sin", "cos"):
            try:
                return math.sin(arg) if e.name == "sin" else math.cos(arg)
            except ValueError:
                raise DomainError("sin or cos of an infinite value") from None
        if e.name == "exp":
            try:
                return _finite(math.exp(arg))
            except OverflowError:
                raise DomainError("exp overflow") from None
        if e.name == "sqrt":
            if arg < 0.0:
                raise DomainError(f"sqrt of negative value {arg}")
            return math.sqrt(arg)
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def _finite(x):
    if not math.isfinite(x):
        raise DomainError("intermediate value is not finite")
    return x


# ---------------------------------------------------------------------------
# compiled evaluation

# Code objects `_generated` keeps, the most recently used.  Printing a table
# or a geodesic loop costs far less than compiling what it prints (about 0.2
# against 3.0 ms for the RK4 loop of the 45-entry S^5 chart on a 2-CPU shared
# host, Python 3.11.7), and each `geodesic` op or criterion 9 prints the
# source of the op before it again.
_GENERATED_CODES = 64
_codes = {}     # source text -> code object, least recently used first
_serial = itertools.count()


def _generated(source, name, namespace):
    """Exec `source` in `namespace` and return what it binds to `name`.

    The code object is kept per source text, for the `_GENERATED_CODES`
    texts used last, and its source is in `linecache` under a filename of
    its own while the cache or a function made from it holds the
    function's code, so a traceback shows the generated line, and a profile
    names its file and line.  Each call execs the code in the namespace it is given, so a
    function made here is bound to its own caller's namespace and never
    shared with another caller."""
    code = _codes.pop(source, None)
    if code is None:
        filename = f"<jetgeo generated {name} {next(_serial)}>"
        code = compile(source, filename, "exec")
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        if len(_codes) >= _GENERATED_CODES:
            del _codes[next(iter(_codes))]
        exec(code, namespace)
        weakref.finalize(namespace[name].__code__, linecache.cache.pop, filename, None)
    else:
        exec(code, namespace)
    _codes[source] = code
    return namespace[name]


# Factors per generated guard statement.  Python's compiler recurses once per
# operator of an expression, so one product of thousands of factors raises
# RecursionError at compile time; a longer guard takes several statements.
_PRODUCT_FACTORS = 100

# The operator `_plan_lines` prints for each numpy ufunc of a plan.
_INFIX = {np.multiply: "*", np.add: "+", np.divide: "/"}


def _plan_lines(plan, columns, prefix):
    """A `_BatchPlan` printed as arithmetic on floats, or None for a plan
    with a NaN constant, which is interpreted at every point.

    Returns the statements, one local ``{prefix}{row}`` per row that is not
    a constant, symbol rows first, set to the text in `columns` of their
    coordinate, then one statement per operation of the plan; the text of
    each output (a local, or a float literal for a constant); and the
    locals in row order, for `_guard_lines`."""
    if np.isnan(plan.const_values).any():
        return None
    operands = [f"{prefix}{r}" for r in range(plan.size)]
    for r, v in zip(plan.const_rows, plan.const_values[:, 0].tolist()):
        operands[r] = f"({v!r})" if v < 0 else repr(v)
    lines = [f"{operands[r]} = {columns[j]}" for r, j in zip(plan.sym_rows, plan.sym_columns)]
    for fn, x, y, out in plan.ops:
        if fn in _INFIX:
            text = f"{operands[x]} {_INFIX[fn]} {operands[y]}"
        elif y:
            text = f"{operands[x]} ** {y[0]}"
        elif type(x) is list:
            text = f"fsum(({''.join(operands[r] + ', ' for r in x)}))"
        else:
            text = f"{fn.__name__}({operands[x]})"
        lines.append(f"{operands[out]} = {text}")
    consts = set(plan.const_rows)
    return lines, [operands[r] for r in plan.outputs], [t for r, t in enumerate(operands) if r not in consts]


def _guard_lines(factors):
    """Statements that set ``finite`` to the product of 0.0 and the locals in
    `factors`, `_PRODUCT_FACTORS` at a time: ±0.0 where every local is
    finite, NaN where one is infinite or NaN."""
    return [f"finite = {' * '.join(['finite' if i else '0.0', *factors[i:i + _PRODUCT_FACTORS]])}"
            for i in range(0, max(len(factors), 1), _PRODUCT_FACTORS)]


# The names the statements of `_plan_lines` call.
_PLAN_FUNCTIONS = {"fsum": math.fsum, "sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}


def compile_table(exprs, names, plan=None):
    """Compile a table of trees into one straight-line Python function.

    ``compile_table(exprs, names)(*coords)`` returns what
    ``_interpret(exprs, names, coords)`` returns, bit for bit, and raises
    what it raises, with the same message.  The function prints the trees'
    `_BatchPlan` (`plan`, built here if not given) by `_plan_lines`, then
    one guard that every local is finite.  If the body raises anything, or
    the guard trips, it returns `_interpret` at the same point, so the
    interpreter raises its own first error.  That is exact: the interpreter
    raises only where a node's value is not finite or one of its checks
    fires, and each check it makes at a point stands for an exception of the
    float operation at that node (a zero division, an overflow, a negative
    sqrt, sin or cos of an infinity, fsum of opposite infinities).  A plan
    with a NaN constant (a constant beyond float range, an unassigned
    symbol, an unknown function) is interpreted at every point.
    """
    exprs, names = tuple(exprs), tuple(names)
    plan = plan if plan is not None else _BatchPlan(exprs, names)

    def interpreted(*coords):
        return _interpret(exprs, names, coords)

    printed = _plan_lines(plan, [f"float(c{j})" for j in range(len(names))], "t")
    if printed is None:
        return interpreted
    lines, outputs, factors = printed
    params = "".join(f"c{j}, " for j in range(len(names)))
    body = "".join(f"        {line}\n" for line in lines + _guard_lines(factors))
    source = (f"def table({params}):\n    try:\n{body}"
              f"        if finite == 0.0:\n            return ({''.join(t + ', ' for t in outputs)})\n"
              f"    except Exception:\n        pass\n"
              f"    return interpreted({params})\n")
    return _generated(source, "table", {**_PLAN_FUNCTIONS, "interpreted": interpreted})


# ---------------------------------------------------------------------------
# tables evaluated at points


def _interpret(exprs, names, point):
    """The tuple of `evaluate(e, env)` for e in exprs, where env assigns the
    point's coordinates to `names`."""
    env = dict(zip(names, point))
    return tuple(evaluate(e, env) for e in exprs)


# A `Table` interprets its trees this many times before compiling them:
# compiling costs as much as several interpreted calls, and most tables are
# called at one point only a few times (a selftest op builds 29 connections,
# its random ones carry no trees, and about 25 tables are called at most twice).
_INTERPRETED_CALLS = 2


class Table:
    """A table of trees over named coordinates, evaluated at points.

    ``table(point)`` returns the tuple of the trees' values at the point,
    whose coordinates follow `names`.  The first `_INTERPRETED_CALLS` calls
    interpret the trees with `evaluate`; later calls run `compiled()`, which
    gives the same floats and raises the same first error; a table of no
    trees returns () and never compiles.  `at_many` and `rows` evaluate many
    points at once with numpy.
    """

    def __init__(self, exprs, names):
        self.exprs = tuple(exprs)
        self.names = tuple(names)
        self._interpreted = 0
        self._compiled = None
        self._plan = None
        self._derivatives = {}

    def __call__(self, point):
        if len(point) != len(self.names):
            raise DimensionMismatchError(
                f"point of length {len(point)} for frame of dimension {len(self.names)}"
            )
        if not self.exprs:
            return ()
        if self._compiled is None and self._interpreted < _INTERPRETED_CALLS:
            self._interpreted += 1
            return _interpret(self.exprs, self.names, point)
        return self.compiled()(*point)

    def interpreted(self, *coords):
        """The values at a point by the tree interpreter: what `compiled()`
        returns there, or the error it raises."""
        return _interpret(self.exprs, self.names, coords)

    def compiled(self):
        """The table's `_BatchPlan` compiled by `compile_table`, built on the
        first call and kept: ``compiled()(*coords)`` returns the values at
        that point."""
        if self._compiled is None:
            self._compiled = compile_table(self.exprs, self.names, self.plan())
        return self._compiled

    def at_many(self, points):
        """The values at each row of an (N, l) point array, with numpy: an
        (N, k) array, and a boolean (N,) mask `ok`.

        Each structurally distinct subtree is computed once, over all rows
        (`_BatchPlan`, built once per table and printed by `compiled()`),
        with the float operations of `_eval`, so a row that is ok holds the
        values the per-point table gives, bit for bit.  A row is not ok
        where a node of it is not finite, which is where a zero denominator,
        a zero base with a negative exponent, a negative sqrt argument or an
        overflow shows; at finite points `__call__` raises there, and it
        alone says with which error.  Nothing is compiled."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != len(self.names):
            raise DimensionMismatchError(
                f"points of shape {points.shape} for frame of dimension {len(self.names)}"
            )
        return self.plan().run(points)

    def plan(self):
        """The table's `_BatchPlan`, built on the first call and kept."""
        if self._plan is None:
            self._plan = _BatchPlan(self.exprs, self.names)
        return self._plan

    def rows(self, points):
        """The values of `at_many`, and the failures: a mapping from the
        index of each row where `__call__` raises DomainError to the error,
        in row order.

        A row that is not ok is evaluated once more by `__call__`, which
        gives that row's values or raises, where one of its coordinates is
        not finite or the plan has a NaN constant.  Elsewhere `__call__`
        raises at such a row (see `at_many`), so it is a failure at once,
        and its error is made when it is first read: a caller that reads
        the errors of a few rows, as `geodesy.extension_deviation` reads
        those of the points its walk reaches, pays for those alone."""
        points = np.asarray(points, dtype=float)
        values, ok = self.at_many(points)
        decided = np.isfinite(points).all(axis=1) & (not np.isnan(self.plan().const_values).any())
        errors = {}
        for i in np.flatnonzero(~ok).tolist():
            if decided[i]:
                errors[i] = None
                continue
            try:
                values[i] = self(points[i])
            except DomainError as e:
                errors[i] = e.with_traceback(None)
        return values, _RowErrors(self, points, errors)

    def derivative(self, name):
        """The table of `differentiate(e, name)` over the trees, built on the
        first call and kept."""
        if name not in self._derivatives:
            self._derivatives[name] = Table((differentiate(e, name) for e in self.exprs), self.names)
        return self._derivatives[name]

    def __getstate__(self):
        # the compiled table is a generated function, and the batch plan holds
        # closures: neither pickles
        return {**self.__dict__, "_interpreted": 0, "_compiled": None, "_plan": None}


class _RowErrors(Mapping):
    """The failures of `Table.rows`: the index of each failed row, in row
    order, mapped to its DomainError.  An error not made yet (None) is made
    when first read, by the per-point table, which raises at that row.  An
    error is kept without its traceback: the traceback holds the frame that
    made it, which holds the arrays of the batch, and such a cycle kept
    them until a full collection."""

    def __init__(self, table, points, errors):
        self._table, self._points, self._errors = table, points, errors

    def __getitem__(self, i):
        if self._errors[i] is None:
            try:
                self._table(self._points[i])
            except DomainError as e:
                self._errors[i] = e.with_traceback(None)
            else:
                raise RuntimeError(f"row {i} is not ok, but the per-point table evaluates it")
        return self._errors[i]

    def __iter__(self):
        return iter(self._errors)

    def __len__(self):
        return len(self._errors)


def _each(fn, values):
    """[fn(v) for v in values], with NaN where fn raises an ArithmeticError
    or ValueError: math's overflow, zero division, domain and fsum errors."""
    try:
        return [fn(v) for v in values]
    except (ArithmeticError, ValueError):
        out = []
        for v in values:
            try:
                out.append(fn(v))
            except (ArithmeticError, ValueError):
                out.append(math.nan)
        return out


class _BatchPlan:
    """The distinct subtrees of a table, one row each of an (nodes, N) node
    buffer, in an order where every operand comes before its node.

    Constants and symbols fill their rows in one assignment each.  Every
    other node takes the float operations `_eval` makes, over whole rows, so
    each row of the buffer holds `_eval`'s value at each point:
    - a product multiplies from its first factor left to right (`_eval`
      starts from 1.0, and 1.0 * x is x);
    - a sum of one term is t + 0.0, and of two (a + b) + 0.0: IEEE addition
      rounds correctly, as fsum does, and + 0.0 turns -0.0 into fsum's 0.0.
      A longer sum calls `math.fsum` per point;
    - a quotient divides, correctly rounded as in Python;
    - a power calls Python's ``float ** int``, and sin, cos, exp and sqrt
      call `math`, per point: numpy's versions may round differently.
    A node that `_eval` raises on without a non-finite value (a constant
    beyond float range, an unassigned symbol, an unknown function) reads
    NaN, as does a failing per-point call.

    `ops` holds ``(ufunc, x, y, row)`` for ``ufunc(x, y, out=row)`` on rows,
    and ``(fn, x, exponent, row)`` for fn per point, of the values of row x
    or, for a list x, of the rows in it: a power, whose ``(k,)`` is kept for
    `_plan_lines` to print, or `math.fsum`, sin, cos, exp or sqrt with
    ``()``.  `_plan_lines` prints the same operations as Python."""

    def __init__(self, exprs, names):
        columns = {name: j for j, name in enumerate(names)}
        slots = {}      # a node's key, made of its operands' rows -> its row
        rows = {}       # id of a node -> its row
        consts, syms, self.ops = [], [], []

        def slot(key):
            if key not in slots:
                slots[key] = len(slots)
                if key[0] == "const":
                    consts.append((slots[key], key[1]))
                elif key[0] == "sym":
                    syms.append((slots[key], key[1]))
                else:
                    emit(key[0], key[1], slots[key], *key[2:])
            return slots[key]

        def emit(kind, args, out, *exponent):
            if kind == "mul":
                second = args[1] if len(args) > 1 else slot(("const", 1.0))
                self.ops.append((np.multiply, args[0], second, out))
                self.ops += [(np.multiply, out, f, out) for f in args[2:]]
            elif kind == "add" and len(args) == 1:
                self.ops.append((np.add, args[0], slot(("const", 0.0)), out))
            elif kind == "add" and len(args) == 2:
                self.ops += [(np.add, args[0], args[1], out), (np.add, out, slot(("const", 0.0)), out)]
            elif kind == "add":
                self.ops.append((math.fsum, list(args), (), out))
            elif kind == "div":
                self.ops.append((np.divide, args[0], args[1], out))
            elif kind == "pow":
                self.ops.append((lambda b, k=exponent[0]: b ** k, args[0], exponent, out))
            else:
                self.ops.append((getattr(math, kind), args[0], (), out))

        def row(e):
            r = rows.get(id(e))
            if r is not None:
                return r
            if isinstance(e, Mul) and e.factors:
                key = ("mul", tuple([row(f) for f in e.factors]))
            elif isinstance(e, Add) and e.terms:
                key = ("add", tuple([row(t) for t in e.terms]))
            elif isinstance(e, Sym) and e.name in columns:
                key = ("sym", columns[e.name])
            elif isinstance(e, Div):
                key = ("div", (row(e.num), row(e.den)))
            elif isinstance(e, Pow):
                key = ("pow", (row(e.base),), e.exponent)
            elif isinstance(e, Func) and e.name in FUNCTION_NAMES:
                key = (e.name, (row(e.arg),))
            else:
                key = ("const", _const_value(e))
            r = rows[id(e)] = slot(key)
            return r

        self.outputs = [row(e) for e in exprs]
        self.const_rows = [r for r, _ in consts]
        self.const_values = np.array([v for _, v in consts], dtype=float).reshape(-1, 1)
        self.sym_rows = [r for r, _ in syms]
        self.sym_columns = [j for _, j in syms]
        self.size = len(slots)
        self._buffer = None     # (N, buffer, its rows as views), kept for the next call

    def run(self, points):
        if self._buffer is None or self._buffer[0] != len(points):
            buf = np.empty((self.size, len(points)))
            self._buffer = (len(points), buf, list(buf))
        _, buf, v = self._buffer
        buf[self.const_rows] = self.const_values
        buf[self.sym_rows] = points.T[self.sym_columns]
        with np.errstate(all="ignore"):
            for fn, x, y, out in self.ops:
                if type(y) is tuple:
                    v[out][:] = _each(fn, buf[x].T.tolist() if type(x) is list else v[x].tolist())
                else:
                    fn(v[x], v[y], out=v[out])
            ok = np.isfinite(buf).all(axis=0)
        return buf[self.outputs].T, ok


def _const_value(e):
    """The float of a node `_BatchPlan` does not compute: a constant's value,
    or NaN for one beyond float range; 0.0 for a sum of no terms and 1.0 for
    a product of no factors; NaN for any other node, where `_eval` raises
    MissingSymbolError or TypeError."""
    if isinstance(e, (Add, Mul)):
        return 0.0 if isinstance(e, Add) else 1.0
    if isinstance(e, Const):
        try:
            return float(e.value)
        except OverflowError:
            return math.nan
    return math.nan


def symbols_of(e):
    """Set of coordinate names appearing in the tree."""
    out = set()
    _collect_symbols(e, out)
    return out


def _collect_symbols(e, out):
    if isinstance(e, Sym):
        out.add(e.name)
    elif isinstance(e, Add):
        for t in e.terms:
            _collect_symbols(t, out)
    elif isinstance(e, Mul):
        for f in e.factors:
            _collect_symbols(f, out)
    elif isinstance(e, Pow):
        _collect_symbols(e.base, out)
    elif isinstance(e, Div):
        _collect_symbols(e.num, out)
        _collect_symbols(e.den, out)
    elif isinstance(e, Func):
        _collect_symbols(e.arg, out)


# ---------------------------------------------------------------------------
# simplification


def simplify(e):
    """Structural normal pass; idempotent.

    Folds constants, absorbs 0/1, flattens nested sums/products, sorts
    operands into a stable order, and collects identical monomials in sums.
    Quotients with a symbolic denominator are left alone so that declared
    division-by-zero behaviour is preserved.

    The result is marked as a normal form, and a marked tree is returned
    as it is: by idempotence that is what simplifying it would give.
    """
    if getattr(e, "_normal", False):
        return e
    return _marked(_normal_form(e))


def _marked(e):
    """`e`, marked as a normal form."""
    e.__dict__["_normal"] = True
    return e


def _product(values):
    """The product of a list of rationals: a lone one as it is, no need to
    multiply it by 1."""
    return values[0] if len(values) == 1 else math.prod(values, start=Fraction(1))


def _normal_form(e):
    if isinstance(e, Func):
        arg = simplify(e.arg)
        if isinstance(arg, Const):
            folded = _fold_func(e.name, arg.value)
            if folded is not None:
                return folded
        return Func(e.name, arg)
    if isinstance(e, Pow):
        return _simplify_pow(simplify(e.base), e.exponent)
    if isinstance(e, Div):
        num = simplify(e.num)
        den = simplify(e.den)
        if isinstance(den, Const) and den.value != 0:
            return simplify(Mul((Const(1 / den.value), num)))
        return Div(num, den)
    if isinstance(e, Mul):
        return _simplify_mul(e.factors)
    if isinstance(e, Add):
        return _simplify_add(e.terms)
    raise TypeError(f"cannot simplify {type(e).__name__}")


def _fold_func(name, value):
    if value == 0:
        return {"sin": ZERO, "cos": ONE, "exp": ONE, "sqrt": ZERO}[name]
    if name == "sqrt" and value > 0:
        num = math.isqrt(value.numerator)
        den = math.isqrt(value.denominator)
        if num * num == value.numerator and den * den == value.denominator:
            return Const(Fraction(num, den))
    return None


# A power of a constant is folded only while its value has at most about
# this many bits: 2^999999999999 from a spec stays a power, not a hang.
_FOLD_BITS = 1 << 16


def _simplify_pow(base, exponent):
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0:
            if exponent < 0:
                return Pow(base, exponent)
            return ZERO
        size = max(base.value.numerator.bit_length(), base.value.denominator.bit_length()) - 1
        if abs(exponent) * size > _FOLD_BITS:
            return Pow(base, exponent)
        return Const(base.value ** exponent)
    if isinstance(base, Pow):
        return _simplify_pow(base.base, base.exponent * exponent)
    return Pow(base, exponent)


def _simplify_mul(factors):
    flat = []
    coeffs = []
    stack = list(factors)
    while stack:
        f = simplify(stack.pop(0))
        if isinstance(f, Mul):
            stack = list(f.factors) + stack
        elif isinstance(f, Const):
            coeffs.append(f.value)
        else:
            flat.append(f)
    coeff = _product(coeffs)
    if coeff == 0:
        return ZERO
    divs = [f for f in flat if isinstance(f, Div)]
    if divs:
        others = [f for f in flat if not isinstance(f, Div)]
        num = Mul((Const(coeff), *others, *(d.num for d in divs)))
        den = Mul(tuple(d.den for d in divs))
        return simplify(Div(num, den))
    flat.sort(key=_key)
    if not flat:
        return Const(coeff)
    if coeff != 1:
        return Mul((Const(coeff),) + tuple(flat))
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def _simplify_add(terms):
    flat = []
    stack = list(terms)
    while stack:
        t = simplify(stack.pop(0))
        if isinstance(t, Add):
            stack = list(t.terms) + stack
        else:
            flat.append(t)
    constant = Fraction(0)
    groups = {}
    for t in flat:
        if isinstance(t, Const):
            constant += t.value
            continue
        coeff, core = _coeff_core(t)
        previous = groups.get(core)
        groups[core] = coeff if previous is None else previous + coeff
    return normal_sum(groups.items(), constant)


def normal_sum(terms, constant):
    """The normal form of sum(c * core for core, c in terms) + constant,
    marked as one.  The (core, rational c) pairs must have distinct cores,
    each simplified, non-constant and free of rational factors, as
    `_coeff_core` returns them.  Cores go in `_key` order, zero terms are
    dropped, a core with coefficient 1 stands bare, and the constant goes
    last.  Each product c * core built here is marked too: by the
    precondition it is what `_simplify_mul` gives for it."""
    out = []
    for core, c in sorted(terms, key=lambda term: _key(term[0])):
        if c == 0:
            continue
        if c == 1:
            out.append(core)
        elif isinstance(core, Mul):
            out.append(_marked(Mul((Const(c),) + core.factors)))
        elif isinstance(core, Div):
            out.append(simplify(Mul((Const(c), core))))
        else:
            out.append(_marked(Mul((Const(c), core))))
    if constant != 0:
        out.append(Const(constant))
    if not out:
        return ZERO
    return _marked(out[0] if len(out) == 1 else Add(tuple(out)))


def _coeff_core(t):
    """Split a simplified non-constant term into (rational coeff, core).
    Coefficients are pulled out of quotient numerators too, so like
    quotient terms collect."""
    if isinstance(t, Const):
        return t.value, ONE
    if isinstance(t, Div):
        coeff, core_num = _coeff_core(t.num)
        return coeff, Div(core_num, t.den)
    if isinstance(t, Mul):
        coeffs = []
        rest = []
        for f in t.factors:
            if isinstance(f, Const):
                coeffs.append(f.value)
            else:
                rest.append(f)
        coeff = _product(coeffs)
        if not rest:
            return coeff, ONE
        if len(rest) == 1:
            return coeff, rest[0]
        return coeff, Mul(tuple(rest))
    return Fraction(1), t


def _key(e):
    if isinstance(e, Const):
        return (0, e.value, 0)
    if isinstance(e, Sym):
        return (1, e.name, 0)
    if isinstance(e, Func):
        return (2, e.name, _key(e.arg))
    if isinstance(e, Pow):
        return (3, _key(e.base), e.exponent)
    if isinstance(e, Div):
        return (4, _key(e.num), _key(e.den))
    if isinstance(e, Mul):
        return (5, tuple(_key(f) for f in e.factors), 0)
    if isinstance(e, Add):
        return (6, tuple(_key(t) for t in e.terms), 0)
    raise TypeError(type(e).__name__)


def is_zero(e):
    s = simplify(e)
    return isinstance(s, Const) and s.value == 0


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, names):
        self.text = text
        self.names = frozenset(names)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected '{op}'", pos)

    def parse(self):
        e = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return e

    def expression(self):
        terms = [self.term()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                t = self.term()
                terms.append(t if value == "+" else negate(t))
            else:
                break
        if len(terms) == 1:
            return terms[0]
        flat = []
        for t in terms:
            flat.extend(t.terms if isinstance(t, Add) else (t,))
        return Add(tuple(flat))

    def term(self):
        factors = [self.unary()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.unary()
                if value == "*":
                    factors.append(rhs)
                else:
                    lhs = self._combine(factors)
                    if isinstance(lhs, Const) and isinstance(rhs, Const) and rhs.value != 0:
                        factors = [Const(lhs.value / rhs.value)]
                    else:
                        factors = [Div(lhs, rhs)]
            else:
                break
        return self._combine(factors)

    @staticmethod
    def _combine(factors):
        if len(factors) == 1:
            return factors[0]
        flat = []
        for f in factors:
            flat.extend(f.factors if isinstance(f, Mul) else (f,))
        return Mul(tuple(flat))

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return negate(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            return Pow(base, self.exponent())
        return base

    def exponent(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "(":
            self.take()
            k = self.signed_integer()
            self.expect_op(")")
            return k
        return self.signed_integer()

    def signed_integer(self):
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            sign = -1
            kind, value, pos = self.peek()
        if kind != "number" or "." in value:
            raise ParseError("integer exponent required", pos)
        self.take()
        return sign * _number(int, value, pos)

    def atom(self):
        kind, value, pos = self.take()
        if kind == "number":
            return Const(_number(Fraction, value, pos))
        if kind == "ident":
            if value in FUNCTION_NAMES:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return Func(value, arg)
            if value not in self.names:
                raise UnknownSymbolError(value, pos)
            return Sym(value)
        if kind == "op" and value == "(":
            e = self.expression()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def _number(kind, text, pos):
    try:
        return kind(text)
    except ValueError:  # beyond Python's limit on the digits of an int
        raise ParseError("number has too many digits", pos) from None


def parse(text, frame):
    """Parse infix expression text over the frame's coordinate names.

    Numeric subterms of the forms `p/q` and `-p` fold to exact rational
    constants, so printed trees re-parse to structurally equal trees.
    """
    names = frame.names if isinstance(frame, CoordinateFrame) else tuple(frame)
    return _Parser(text, names).parse()


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def to_text(e):
    """Render to grammar text.  parse(to_text(x)) == x for parsed trees.
    A constant with more digits than Python turns into text raises
    JetGeoError."""
    return _render(e)[0]


def _render(e):
    """Returns (text, precedence of the outermost construct)."""
    if isinstance(e, Const):
        try:
            text = str(e.value)
        except ValueError:  # beyond Python's limit on the digits of an int
            raise JetGeoError("constant has too many digits to print") from None
        return text, (_PREC_MUL if "/" in text else (_PREC_ADD if e.value < 0 else _PREC_ATOM))
    if isinstance(e, Sym):
        return e.name, _PREC_ATOM
    if isinstance(e, Func):
        return f"{e.name}({to_text(e.arg)})", _PREC_ATOM
    if isinstance(e, Add):
        parts = []
        for t in e.terms:
            text, prec = _render(t)
            # "- a/b" would parse as -(a/b), not as the quotient (-a)/b
            if prec < _PREC_ADD or isinstance(t, Add) or (parts and isinstance(t, Div) and text[0] == "-"):
                text = f"({text})"
            if parts and text.startswith("-"):
                parts.append(f"- {text[1:]}")
            elif parts:
                parts.append(f"+ {text}")
            else:
                parts.append(text)
        return " ".join(parts), _PREC_ADD
    if isinstance(e, Mul):
        parts = []
        for f in e.factors:
            text, prec = _render(f)
            # "a*1/2" would parse as (a*1)/2
            if prec < _PREC_MUL or isinstance(f, Div) or (parts and isinstance(f, Const) and "/" in text):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts), _PREC_MUL
    if isinstance(e, Div):
        num, num_prec = _render(e.num)
        if num_prec < _PREC_MUL:
            num = f"({num})"
        den, den_prec = _render(e.den)
        if den_prec <= _PREC_MUL:
            den = f"({den})"
        return f"{num}/{den}", _PREC_MUL
    if isinstance(e, Pow):
        base, base_prec = _render(e.base)
        if base_prec < _PREC_ATOM:
            base = f"({base})"
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return f"{base}^{exp}", _PREC_POW
    raise TypeError(type(e).__name__)


# ---------------------------------------------------------------------------
# small symbolic matrices (cofactor expansion; intended for dims <= 3)


def matrix_determinant(rows):
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("matrix must be square")
    if size == 1:
        return rows[0][0]
    terms = []
    for j in range(size):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        cofactor = Mul((rows[0][j], matrix_determinant(minor)))
        terms.append(cofactor if j % 2 == 0 else negate(cofactor))
    return simplify(Add(tuple(terms)))


def matrix_inverse(rows):
    """Inverse of a matrix of expressions via the adjugate; entries are
    quotients by the symbolic determinant."""
    size = len(rows)
    det = matrix_determinant(rows)
    if size == 1:
        return [[simplify(Div(ONE, det))]]
    out = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            minor = [
                [rows[r][c] for c in range(size) if c != j]
                for r in range(size) if r != i
            ]
            cof = matrix_determinant(minor)
            if (i + j) % 2 == 1:
                cof = negate(cof)
            out[j][i] = simplify(Div(cof, det))
    return out
