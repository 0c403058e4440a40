"""Coordinate models of jets of submanifolds and jets of sections.

Two finite coordinate records, of order r = 1 or 2:

* SubJet — a point of the jet space of n-dimensional submanifolds in a
  divided chart: base values (u^1..u^l) and the derivatives of the fibre
  coordinates u^i over the base directions.
* SecJet — a point of the jet space of sections of a trivial bundle over
  an n-dimensional parameter space: (x^lambda, u^A, u^A_{x sigma}).

Both store their derivatives only as read-only arrays: `first` (rows, n)
and, at order 2, `second` (rows, n, n), symmetric in its last two axes.
Orders above 2 are not modelled: no kernel, projection or action reads
them.

Plus the maps between and on them: prolongation of a parametrized map,
the covering projections that forget the parametrization (orders 1 and 2),
the affine action on the parameter space, and general reparametrization.

Multi-indices appear only in the JSON form, in `jet_from_dict`,
`jet_to_dict` and their helper `derivative_entries`: entries are keyed
(index, sigma) with sigma sorted, in lexicographic order over the sorted
tuples, e.g. for n = 2, r = 2: (1), (1,1), (1,2), (2), (2,2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import combinations_with_replacement

import numpy as np

from . import expr
from .errors import (
    DimensionMismatchError,
    SingularJacobianError,
    SpecLoadError,
    json_int,
    json_number,
    json_numbers,
    load_json,
)
from .expr import CoordinateFrame

_DET_THRESHOLD = 1e-12


def _frozen(values, shape, symmetric=False):
    """A read-only float copy of values with the given shape.  With
    symmetric, only the entries [..., lam, xi] with lam <= xi are read, and
    mirrored."""
    a = np.asarray(values, dtype=float)
    if a.shape != shape:
        raise DimensionMismatchError(f"derivative array has shape {a.shape}, expected {shape}")
    a = mirrored(a) if symmetric else a.copy()
    a.flags.writeable = False
    return a


def mirrored(second):
    """A copy of second derivatives (..., n, n) with each entry [..., xi, lam]
    below the diagonal replaced by [..., lam, xi]: what an order-2 jet
    stores of them."""
    n = second.shape[-1]
    return np.where(np.triu(np.ones((n, n), dtype=bool)), second, np.swapaxes(second, -1, -2))


class _Jet:
    """What SubJet and SecJet share: the order, the derivative arrays and
    exact equality."""

    @property
    def r(self):
        return 1 if self.second is None else 2

    def _store(self, rows):
        object.__setattr__(self, "first", _frozen(self.first, (rows, self.n)))
        if self.second is not None:
            object.__setattr__(
                self, "second", _frozen(self.second, (rows, self.n, self.n), symmetric=True)
            )

    def with_second(self, second):
        """This jet at order 2 with the given second derivatives; only the
        entries [..., lam, xi] with lam <= xi are read, and mirrored."""
        return replace(self, second=second)

    def truncate(self, r):
        if r not in (1, 2) or r > self.r:
            raise DimensionMismatchError(f"cannot truncate an order-{self.r} jet to order {r}")
        return self if r == self.r else replace(self, second=None)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class SubJet(_Jet):
    """Jet of an n-dimensional submanifold, order 1 or 2, in a divided chart.

    base holds (u^1..u^{n+m}); first[k, lam] is u^{n+1+k}_{lam+1}, an
    (m, n) array, and second[k, lam, xi] is u^{n+1+k}_{lam+1 xi+1}, an
    (m, n, n) array at order 2 and None at order 1.
    """

    n: int
    m: int
    base: tuple
    first: np.ndarray
    second: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(float(v) for v in self.base))
        if len(self.base) != self.n + self.m:
            raise DimensionMismatchError(
                f"base has {len(self.base)} values for n+m={self.n + self.m}"
            )
        self._store(self.m)

    @property
    def l(self):
        return self.n + self.m

    def first_matrix(self):
        """u^i_lambda as an (m, n) array, fibre rows, base columns."""
        return self.first

    def second_array(self):
        """u^i_{lambda xi} as an (m, n, n) array, symmetric in the last two."""
        return self.second


@dataclass(frozen=True, eq=False)
class SecJet(_Jet):
    """Jet of a section over an n-dimensional parameter space, order 1 or 2.

    x holds the parameter point, u the full fibre point (u^1..u^l);
    first[A, lam] is u^{A+1}_{x lam+1}, an (l, n) array, and second is the
    (l, n, n) array of u^{A+1}_{x lam+1 x xi+1} at order 2, None at order 1.
    """

    n: int
    l: int
    x: tuple
    u: tuple
    first: np.ndarray
    second: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "u", tuple(float(v) for v in self.u))
        if len(self.x) != self.n:
            raise DimensionMismatchError(f"x has {len(self.x)} values for n={self.n}")
        if len(self.u) != self.l:
            raise DimensionMismatchError(f"u has {len(self.u)} values for l={self.l}")
        self._store(self.l)

    @property
    def m(self):
        return self.l - self.n

    def first_matrix(self):
        """u^A_{x lambda} as an (l, n) array."""
        return self.first

    def second_array(self):
        """u^A_{x lambda x xi} as an (l, n, n) array."""
        return self.second


@dataclass(frozen=True)
class ParamMap:
    """An n-parameter family of expressions: a local section x -> s(x).

    frame names the parameters; components are the l fibre expressions,
    evaluated through the `expr.Table` `table`.
    """

    frame: CoordinateFrame
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        allowed = set(self.frame.names)
        for c in self.components:
            bad = expr.symbols_of(c) - allowed
            if bad:
                raise SpecLoadError(f"component uses non-parameter symbols {sorted(bad)}")
        object.__setattr__(self, "table", expr.Table(self.components, self.frame.names))

    @property
    def n(self):
        return self.frame.dim

    @property
    def l(self):
        return len(self.components)

    def jacobian_at(self, x):
        """∂_lam s^A at x as an (l, n) array."""
        return np.column_stack([self.table.derivative(name)(x) for name in self.frame.names])


@dataclass(frozen=True)
class AffineMap:
    """x -> a x + b on the parameter space, det(a) != 0."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise DimensionMismatchError("affine map needs a square matrix and a matching vector")
        with np.errstate(all="ignore"):     # a determinant beyond float range reads inf
            det = np.linalg.det(a)
        if abs(det) < _DET_THRESHOLD:
            raise SingularJacobianError("affine map matrix is singular")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self):
        return self.a.shape[0]

    def apply(self, x):
        return self.a @ np.asarray(x, dtype=float) + self.b

    def inverse(self):
        inv = np.linalg.inv(self.a)
        return AffineMap(inv, -inv @ self.b)


# ---------------------------------------------------------------------------
# prolongation


def prolong(s, x, r):
    """Order-r jet (r = 1 or 2) of the parametrized map s at the parameter
    point x.

    Fills u^A = s^A(x), u^A_{x lam} = ∂_lam s^A and, at order 2,
    u^A_{x lam x xi} = ∂_xi ∂_lam s^A for lam <= xi, from the derivative
    tables of `s.table`, evaluated at x.
    """
    if r not in (1, 2):
        raise DimensionMismatchError(f"jets of order {r} are not modelled; r must be 1 or 2")
    u = s.table(x)
    first = s.jacobian_at(x)
    second = None
    if r == 2:
        names = s.frame.names
        second = np.zeros((s.l, s.n, s.n))
        for lam, name in enumerate(names):
            for xi in range(lam, s.n):
                second[:, lam, xi] = s.table.derivative(name).derivative(names[xi])(x)
    return SecJet(s.n, s.l, tuple(map(float, x)), u, first, second)


# ---------------------------------------------------------------------------
# covering projections


def inverse_top_blocks(first, n):
    """The inverses (x^lam_{u^xi}) of the base-direction blocks
    (u^xi_{x lam}) = first[..., :n, :] of section jets' first derivatives
    (..., l, n), at one jet or stacked along leading axes.

    Each block's determinant is tested against 1e-12 max(1, max |entry|)^n,
    in row order; the first block below it raises SingularJacobianError.
    Then one stacked solve inverts them all."""
    jac = first[..., :n, :]
    dets = np.linalg.det(jac)
    scales = np.abs(jac).max(axis=(-2, -1))
    for det, scale in zip(np.ravel(dets).tolist(), np.ravel(scales).tolist()):
        if abs(det) < _DET_THRESHOLD * max(1.0, scale) ** n:
            raise SingularJacobianError(
                f"base-direction block determinant {det:.3e} below threshold; "
                "divided chart not concordant at this jet"
            )
    return np.linalg.solve(jac, np.broadcast_to(np.eye(n), jac.shape))


# The array formulas of the covering projections.  Each takes a section
# jet's derivative arrays, first (..., l, n) and second (..., l, n, n), and
# inv = `inverse_top_blocks(first, n)`, at one jet or stacked along the
# same leading axes, so a per-jet projection and a batch of jets share one
# formula.


def cover_first(first, inv):
    """The projected first derivatives u^j_xi = u^j_{x lam} x^lam_{u^xi},
    (..., m, n)."""
    return first[..., inv.shape[-1]:, :] @ inv


def cover_second(first, second, inv):
    """The projected second derivatives (..., m, n, n), by the closed formula

    u^j_{xi eta} = u^j_{x lam x mu} x^lam_{u^xi} x^mu_{u^eta}
                 - u^j_{x lam} x^lam_{u^al} u^al_{x be x ga} x^ga_{u^xi} x^be_{u^eta},

    symmetrized over (xi, eta)."""
    n = inv.shape[-1]
    term1 = np.einsum("...jlm,...lx,...me->...jxe", second[..., n:, :, :], inv, inv)
    chain = np.einsum("...jl,...la->...ja", first[..., n:, :], inv)
    term2 = np.einsum("...ja,...abg,...gx,...be->...jxe", chain, second[..., :n, :, :], inv, inv)
    out = term1 - term2
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def tangent_cover_table(first, dd, inv):
    """The pushforward through the order-1 covering projection of tangent
    vectors with derivative components dd (..., l, n): its derivative
    components (..., m, n), per jet, as matrices,
    dd_out = dd[n:] inv - first[n:] inv dd[:n] inv.  Its base components
    are du, unchanged, and the parameter directions dx are annihilated."""
    n = inv.shape[-1]
    lat = first[..., n:, :]
    return dd[..., n:, :] @ inv - np.einsum("...jb,...bx,...la,...xl->...ja", lat, inv, inv, dd[..., :n, :])


def cover1(t):
    """Project a section jet to the order-1 submanifold jet of its image.

    Base values copy u^A; first derivatives are u^j_xi = x^lambda_{u^xi}
    u^j_{x lambda} with (x^lambda_{u^xi}) the inverse of (u^xi_{x lambda}).
    """
    return SubJet(t.n, t.m, t.u, cover_first(t.first, inverse_top_blocks(t.first, t.n)))


def cover2(t):
    """Project an order-2 section jet to the order-2 submanifold jet of its
    image: `cover1`'s first derivatives and `cover_second`'s second ones,
    from one inverse of the base-direction block."""
    if t.r < 2:
        raise DimensionMismatchError("cover2 needs a jet of order 2")
    inv = inverse_top_blocks(t.first, t.n)  # inv[lam, xi] = x^lam_{u^xi}
    return SubJet(t.n, t.m, t.u, cover_first(t.first, inv), cover_second(t.first, t.second, inv))


# ---------------------------------------------------------------------------
# actions on the parameter space


def affine_act(g, t):
    """Lift of (x, p) -> (g(x), p) to section jets.

    x moves by g; u^A is unchanged; derivatives transform by the constant
    inverse Jacobian: u^A_{x~ lam} = u^A_{x xi} (a^-1)^xi_lam and
    u^A_{x~ lam x~ be} = u^A_{x al x xi} (a^-1)^al_lam (a^-1)^xi_be.
    """
    if g.n != t.n:
        raise DimensionMismatchError("affine map and jet disagree on parameter dimension")
    ainv = np.linalg.inv(g.a)
    second = None if t.r == 1 else affine_second(t.second_array(), ainv)
    return SecJet(t.n, t.l, g.apply(t.x), t.u, t.first_matrix() @ ainv, second)


def affine_second(second, ainv):
    """`affine_act`'s second derivatives from second (..., l, n, n), at one
    jet or stacked along leading axes, and the inverse linear part ainv."""
    return np.einsum("...Cax,al,xb->...Clb", second, ainv, ainv)


def reparam_act(phi, t):
    """Lift of a smooth reparametrization x~ = phi(x) to order-2 section
    jets by the chain rule.

    phi is a `ParamMap` with one component per parameter.  Unlike the
    affine action the lift carries the inhomogeneous second-derivative term
    of phi; for affine phi it reduces to `affine_act`.
    """
    if phi.l != t.n or phi.n != t.n:
        raise DimensionMismatchError("reparametrization arity does not match the jet")
    n, names = t.n, phi.frame.names
    jac = phi.jacobian_at(t.x)
    scale = max(1.0, float(np.abs(jac).max())) ** n
    if abs(np.linalg.det(jac)) < _DET_THRESHOLD * scale:
        raise SingularJacobianError("reparametrization Jacobian is singular at the jet")
    # hess[p, lam, mu] = ∂_mu ∂_lam phi^p
    hess = np.array([[phi.table.derivative(lam).derivative(mu)(t.x) for mu in names]
                     for lam in names]).transpose(2, 0, 1)
    binv = np.linalg.solve(jac, np.eye(n))
    dbinv = -np.einsum("ag,gcb,cl->bal", binv, hess, binv)  # d(binv[a,l])/dx^b
    first = t.first_matrix() @ binv
    out = SecJet(t.n, t.l, phi.table(t.x), t.u, first)
    if t.r == 2:
        d1 = t.first_matrix()
        d2 = t.second_array()
        second = np.einsum("Aab,al,bm->Alm", d2, binv, binv) + np.einsum(
            "Aa,bal,bm->Alm", d1, dbinv, binv
        )
        second = 0.5 * (second + np.transpose(second, (0, 2, 1)))
        out = out.with_second(second)
    return out


# ---------------------------------------------------------------------------
# JSON formats


def multi_indices(n, r):
    """All sorted multi-indices over 1..n with 1 <= |sigma| <= r, in the
    serialization order."""
    out = []
    for k in range(1, r + 1):
        out.extend(combinations_with_replacement(range(1, n + 1), k))
    return tuple(sorted(out))


def derivative_entries(jet):
    """(index, sigma, value) for every derivative of the jet, in the
    serialization order: index ascending, then sigma by `multi_indices`."""
    start = jet.n + 1 if isinstance(jet, SubJet) else 1
    for row in range(len(jet.first)):
        for sigma in multi_indices(jet.n, jet.r):
            array = jet.first if len(sigma) == 1 else jet.second
            yield start + row, sigma, float(array[(row, *(s - 1 for s in sigma))])


def _derivative_arrays(derivs, start, rows, n, r, kind):
    """The arrays (first, second) of a JSON derivative table keyed
    (index, sigma), after checking that it holds exactly one entry per
    index start..start+rows-1 and sorted sigma with |sigma| <= r."""
    for _, sigma in derivs:
        if tuple(sorted(sigma)) != sigma:
            raise SpecLoadError(f"{kind} multi-index {sigma} is not sorted")
    # C(n+r, r) - 1 multi-indices per row, counted before any is built
    if len(derivs) != rows * (math.comb(n + r, r) - 1):
        raise SpecLoadError(f"{kind} derivative table incomplete or overfull "
                            f"({len(derivs)} entries for {rows} rows, n={n}, r={r})")
    expected = {(i, sigma) for i in range(start, start + rows) for sigma in multi_indices(n, r)}
    if set(derivs) != expected:
        missing = sorted(expected - set(derivs))[:4]
        extra = sorted(set(derivs) - expected)[:4]
        raise SpecLoadError(
            f"{kind} derivative table incomplete or overfull "
            f"(missing {missing}, unexpected {extra})"
        )
    first = np.zeros((rows, n))
    second = np.zeros((rows, n, n)) if r == 2 else None
    for (i, sigma), value in derivs.items():
        if len(sigma) == 1:
            first[i - start, sigma[0] - 1] = value
        else:
            second[i - start, sigma[0] - 1, sigma[1] - 1] = value
    return first, second


def jet_from_dict(data):
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in ("secjet", "subjet"):
        raise SpecLoadError(f"unknown jet kind {kind!r}")
    try:
        n, r = json_int(data["n"], "n"), json_int(data["r"], "r")
        if r not in (1, 2):
            raise SpecLoadError(f"jet order r must be 1 or 2, got {r}")
        if kind == "secjet":
            rows, start, key = json_int(data["l"], "l"), 1, "A"
        else:
            rows, start, key = json_int(data["m"], "m"), n + 1, "i"
        derivs = {
            (json_int(item[key], key), tuple(json_int(s, "sigma") for s in item["sigma"])):
                json_number(item["value"], "derivative value")
            for item in data["derivs"]
        }
        first, second = _derivative_arrays(derivs, start, rows, n, r, kind)
        u = json_numbers(data["u"], "u")
        if kind == "secjet":
            return SecJet(n, rows, json_numbers(data["x"], "x"), u, first, second)
        return SubJet(n, rows, u, first, second)
    except (KeyError, TypeError, ValueError) as e:
        raise SpecLoadError(f"malformed jet spec: {e}") from None


def jet_to_dict(jet):
    if isinstance(jet, SecJet):
        out = {"kind": "secjet", "n": jet.n, "l": jet.l, "r": jet.r,
               "x": list(jet.x), "u": list(jet.u)}
        key = "A"
    else:
        out = {"kind": "subjet", "n": jet.n, "m": jet.m, "r": jet.r, "u": list(jet.base)}
        key = "i"
    out["derivs"] = [
        {key: index, "sigma": list(sigma), "value": value}
        for index, sigma, value in derivative_entries(jet)
    ]
    return out


def load_jets(path):
    """Load a jet file: either one jet object or {"jets": [...]}."""
    data = load_json(path)
    items = data["jets"] if isinstance(data, dict) and "jets" in data else [data]
    if not isinstance(items, list):
        raise SpecLoadError(f'"jets" must be a list, got {type(items).__name__}')
    return [jet_from_dict(item) for item in items]
