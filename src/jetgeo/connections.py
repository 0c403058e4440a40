"""Torsion-free linear connections and their projective/Grassmannian structure.

A connection is a table of Christoffel expressions ``G[A]^C[B]`` over a
coordinate frame, stored for the symmetric lower pair A <= B only, so
torsion-freeness holds by construction.  On top of that this module
implements:

* the projective change of connection and the Thomas projective
  invariants (the classical trace-adjusted combinations);
* the four invariant coefficient families of the equation of
  unparametrized totally geodesic submanifolds for a base/fibre split n
  (base indices 1..n, fibre indices n+1..l);
* both invariant sets as arrays, at one point or at a batch of points,
  and their numeric comparison between two connections;
* the general admissible shift between connections sharing those
  invariants, parametrized by the free functions that survive the
  delta-identity contractions.

The sampled checks (`pi_deviation`, `invariants_match`,
`geodesy.extension_deviation`, `symmetry.affine_symmetry_check` and
`symmetry.orbit_quotient_check`) read a connection as a *numeric
connection*: only its `frame`, `dim`, `singular_points` and
`christoffel_many(points)`, which returns the stacked (N, l, l, l) arrays
of its Christoffel symbols at the rows of an (N, l) point array, indexed
[A-1][C-1][B-1], and a mapping from the index of each point where it fails
to the DomainError.  `Connection` evaluates its trees; the coefficient form
of a random connection, `sampling.PolynomialConnection`, gives the same
bits without them.  `check_same_frame` is the one check that two numeric
connections can be compared.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import expr
from .errors import (
    BadSplitError,
    DimensionMismatchError,
    DomainError,
    FrameMismatchError,
    InconsistentPerturbationError,
    SpecLoadError,
    draw_regular,
    json_int,
    json_names,
    load_json,
    outcome,
    require_finite,
    worst,
)
from .expr import Const, CoordinateFrame


_ZERO = Const(Fraction(0))


@dataclass(frozen=True)
class Connection:
    """Symmetric Christoffel table Γ_A{}^C{}_B over a frame.

    `christoffel` maps (A, B, C), 1-based with A <= B, to the expression
    of Γ_A{}^C{}_B; absent entries are zero.  Entries may only use the
    frame's coordinates (they are functions on the underlying manifold).
    `table` is the `expr.Table` of the stored entries, in `christoffel`
    order.  Entries that are one tree object are checked (symbols, zero
    test) once.
    """

    frame: CoordinateFrame
    christoffel: Mapping
    singular_points: tuple = ()

    def __post_init__(self):
        entries = {}
        l = self.frame.dim
        allowed = set(self.frame.names)
        nonzero = {}    # id of an entry's tree -> whether it is kept
        for (a, b, c), e in dict(self.christoffel).items():
            if not (1 <= a <= l and 1 <= b <= l and 1 <= c <= l):
                raise DimensionMismatchError(f"christoffel index ({a},{b},{c}) out of range 1..{l}")
            if a > b:
                raise SpecLoadError("christoffel storage keys must have A <= B")
            if id(e) not in nonzero:
                bad = expr.symbols_of(e) - allowed
                if bad:
                    raise SpecLoadError(f"christoffel entry uses non-frame symbols {sorted(bad)}")
                nonzero[id(e)] = not expr.is_zero(e)
            if nonzero[id(e)]:
                entries[(a, b, c)] = e
        object.__setattr__(self, "christoffel", entries)
        object.__setattr__(self, "singular_points", tuple(tuple(p) for p in self.singular_points))
        object.__setattr__(self, "table", expr.Table(entries.values(), self.frame.names))
        object.__setattr__(self, "_gather", gather_index(entries, l))

    @classmethod
    def zero(cls, frame):
        return cls(frame, {})

    @classmethod
    def flat(cls, n):
        """The flat connection of the parameter space R^n, coordinates x1..xn."""
        return cls.zero(CoordinateFrame(tuple(f"x{i}" for i in range(1, n + 1)), n))

    @classmethod
    def from_entries(cls, frame, entries, singular_points=()):
        """Build from a mapping (A, B, C) -> expression with arbitrary
        lower-pair order; conflicting duplicates are rejected."""
        table = {}
        for (a, b, c), e in entries.items():
            key = (min(a, b), max(a, b), c)
            if key in table and table[key] != e:
                raise SpecLoadError(
                    f"components ({a},{b})^{c} and ({b},{a})^{c} listed with different expressions"
                )
            table[key] = e
        return cls(frame, table, singular_points)

    @property
    def dim(self):
        return self.frame.dim

    def gamma(self, a, c, b):
        """Γ_a{}^c{}_b as an expression (1-based indices)."""
        return self.christoffel.get((min(a, b), max(a, b), c), _ZERO)

    def christoffel_at(self, point):
        """All components at a point, as an (l, l, l) array indexed
        [A-1][C-1][B-1], from the values of `table`."""
        return self.christoffel_array(self.table(point))

    def christoffel_array(self, values):
        """The array of `christoffel_at`, laid out from values of `table`."""
        return np.fromiter(values + (0.0,), float, len(values) + 1)[self._gather]

    def christoffel_arrays(self, rows):
        """The arrays of `christoffel_array` for a list or array of rows of
        `table` values, stacked: (len(rows), l, l, l), in one gather.  The
        result is C-contiguous, as `christoffel_array`'s is: einsum picks
        its summation order by the memory layout, so a batch sums each
        array's entries as a single array would."""
        k = len(self.christoffel)
        stacked = np.zeros((len(rows), k + 1))
        stacked[:, :k] = rows
        return np.take(stacked, self._gather, axis=1)

    def christoffel_many(self, points):
        """The arrays of `christoffel_at` at the rows of an (N, l) point
        array, stacked (N, l, l, l), from one `Table.rows` call, and the
        failures: a mapping from the index of each point where
        `christoffel_at` raises DomainError to the error.  A failed point's array is not
        meaningful.  A single point goes through the per-point table, which
        compiles after two calls: a connection checked one point at a time,
        as `extension_deviation` checks the points a redraw shifts, pays
        for one compile, not for a batch run per point."""
        if len(points) == 1:
            try:
                return self.christoffel_at(points[0])[None], {}
            except DomainError as e:
                return np.full((1, self.dim, self.dim, self.dim), np.nan), {0: e.with_traceback(None)}
        values, failures = self.table.rows(points)
        return self.christoffel_arrays(values), failures

    def shifted(self, diff):
        """Γ' with Γ - Γ' = the sum of the parts diff(A, C, B), expressions,
        at each entry `shift_parts` yields; each entry is simplified."""
        entries = {}
        for (a, b, c), parts in shift_parts(self.dim, self.christoffel, diff):
            d = _ZERO
            for part in parts:
                d = d + part
            entries[(a, b, c)] = expr.simplify(self.gamma(a, c, b) - d)
        return Connection(self.frame, entries, self.singular_points)


def gather_index(keys, l):
    """The (l, l, l) index that lays out one value per stored (A, B, C) of
    `keys`, in their order, as ``array[A-1][C-1][B-1]`` and its mirror
    ``[B-1][C-1][A-1]``; the index after the last value marks a zero
    entry."""
    gather = [len(keys)] * (l * l * l)
    for i, (a, b, c) in enumerate(keys):
        gather[((a - 1) * l + c - 1) * l + b - 1] = gather[((b - 1) * l + c - 1) * l + a - 1] = i
    return np.array(gather).reshape(l, l, l)


def check_same_frame(g1, g2):
    """FrameMismatchError unless two numeric connections share their
    coordinate names, the condition for comparing them point by point."""
    if g1.frame.names != g2.frame.names:
        raise FrameMismatchError("connections live on different frames")


@dataclass(frozen=True)
class ProjInvariants:
    """Thomas projective invariants Π_A{}^C{}_B, keyed (A, C, B)."""

    pi: Mapping


@dataclass(frozen=True)
class GrassInvariants:
    """The four coefficient families of the totally geodesic equation.

    Index letters: base (Greek-role) indices run 1..n, fibre (Latin-role)
    indices run n+1..l.  Families, keyed exactly as displayed:

    * order0[(lam, k, xi)]            = Γ_lam{}^k{}_xi
    * order1[(lam, k, i, beta, xi)]   = δ_xi^beta Γ_lam{}^k{}_i
                                        + δ_lam^beta Γ_i{}^k{}_xi
                                        - δ_i^k Γ_lam{}^beta{}_xi
    * order2[(j, k, i, al, be, lam, xi)] = δ_lam^al δ_xi^be Γ_j{}^k{}_i
                                        - δ_xi^al δ_i^k Γ_lam{}^be{}_j
                                        - δ_lam^al δ_i^k Γ_j{}^be{}_xi
    * order3[(j, beta, i)]            = Γ_j{}^beta{}_i

    The second-order family is one matching per quadratic monomial of the
    equation; the well-defined coefficient of the monomial u^j_al * u^i_be
    is the symmetrization over the simultaneous swap (j, al) <-> (i, be),
    which is what `grass_arrays` returns.
    """

    order0: Mapping
    order1: Mapping
    order2: Mapping
    order3: Mapping


def projective_shift(g, phi):
    """Connection Γ' with Γ - Γ' = δ^C_A Φ_B + δ^C_B Φ_A.

    Φ is one polynomial per coordinate, in g's form (expressions for a
    `Connection`, thousandths for a `sampling.PolynomialConnection`); Γ'
    has the same unparametrized geodesics as Γ.
    """
    if len(phi) != g.dim:
        raise DimensionMismatchError(f"phi has length {len(phi)}, expected {g.dim}")
    return g.shifted(lambda a, c, b: _delta(phi, a, c, b))


def _delta(phi, a, c, b):
    """The parts of δ^C_A Φ_B + δ^C_B Φ_A, 1-based: Φ_B where C is A, then
    Φ_A where C is B."""
    return (phi[b - 1],) * (c == a) + (phi[a - 1],) * (c == b)


def shift_parts(l, stored, diff):
    """(A, B, C) and its parts diff(A, C, B), for each A <= B and C in
    order, where there are parts or `stored` holds the entry: what a
    connection's `shifted` subtracts, entry by entry."""
    for a in range(1, l + 1):
        for b in range(a, l + 1):
            for c in range(1, l + 1):
                parts = diff(a, c, b)
                if parts or (a, b, c) in stored:
                    yield (a, b, c), parts


def _is_zero(part):
    """Whether a polynomial, in either form, is zero."""
    return not any(part.values()) if isinstance(part, dict) else expr.is_zero(part)


def thomas_pi(g):
    """Thomas projective invariants of g.

    Π_A{}^C{}_B = Γ_A{}^C{}_B - (Γ_A{}^F{}_F δ^C_B + Γ_B{}^F{}_F δ^C_A)/(l+1);
    unchanged under any projective shift, and trace-free in (C, B).
    """
    l = g.dim
    trace = [
        expr.simplify(expr.Add(tuple(g.gamma(a, f, f) for f in range(1, l + 1))))
        for a in range(1, l + 1)
    ]
    scale = Const(Fraction(1, l + 1))
    pi = {}
    for a in range(1, l + 1):
        for b in range(1, l + 1):
            for c in range(1, l + 1):
                e = g.gamma(a, c, b)
                correction = _ZERO
                if c == b:
                    correction = correction + trace[a - 1]
                if c == a:
                    correction = correction + trace[b - 1]
                e = expr.simplify(e - scale * correction)
                if not (isinstance(e, Const) and e.value == 0):
                    pi[(a, c, b)] = e
    return ProjInvariants(pi)


def _check_split(g, n):
    if not 1 <= n < g.dim:
        raise BadSplitError(f"split n={n} invalid for dimension {g.dim}")


def grass_invariants(g, n):
    """The four invariant families of g for base/fibre split n."""
    _check_split(g, n)
    l = g.dim
    base = range(1, n + 1)
    fibre = range(n + 1, l + 1)

    order0 = {
        (lam, k, xi): g.gamma(lam, k, xi) for lam in base for k in fibre for xi in base
    }
    order1 = {}
    for lam in base:
        for k in fibre:
            for i in fibre:
                for beta in base:
                    for xi in base:
                        e = _ZERO
                        if beta == xi:
                            e = e + g.gamma(lam, k, i)
                        if beta == lam:
                            e = e + g.gamma(i, k, xi)
                        if i == k:
                            e = e - g.gamma(lam, beta, xi)
                        order1[(lam, k, i, beta, xi)] = expr.simplify(e)
    order2 = {}
    for j in fibre:
        for k in fibre:
            for i in fibre:
                for al in base:
                    for be in base:
                        for lam in base:
                            for xi in base:
                                e = _ZERO
                                if al == lam and be == xi:
                                    e = e + g.gamma(j, k, i)
                                if al == xi and k == i:
                                    e = e - g.gamma(lam, be, j)
                                if al == lam and k == i:
                                    e = e - g.gamma(j, be, xi)
                                order2[(j, k, i, al, be, lam, xi)] = expr.simplify(e)
    order3 = {
        (j, beta, i): g.gamma(j, beta, i) for j in fibre for beta in base for i in fibre
    }
    return GrassInvariants(order0, order1, order2, order3)


def grass_shift(g, n, psi, chi=None):
    """Connection Γ' related to g by the admissible invariant-preserving
    differences for split n.

    Contracting the delta-identities of the relations between two
    connections with equal invariants leaves exactly these free functions:

    * psi: n functions; Γ - Γ' picks up δ^beta_lam ψ_xi + δ^beta_xi ψ_lam
      on the pure base block and δ^k_i ψ_lam on the mixed block with fibre
      upper index (any n).
    * chi: l - n functions, admissible only for n = 1; Γ - Γ' picks up
      δ^beta_lam χ_i on the mixed block with base upper index and
      δ^k_j χ_i + δ^k_i χ_j on the pure fibre block.  For n >= 2 the
      contracted identities force these differences to vanish.

    For n = 1 the combined (psi, chi) shift is exactly the projective
    shift by Φ = (psi_1, chi_2, ..., chi_l).
    """
    _check_split(g, n)
    m = g.dim - n
    if len(psi) != n:
        raise DimensionMismatchError(f"psi has length {len(psi)}, expected {n}")
    if chi is not None and len(chi) != m:
        raise DimensionMismatchError(f"chi has length {len(chi)}, expected {m}")
    if n > 1 and chi is not None and not all(_is_zero(c) for c in chi):
        raise InconsistentPerturbationError(
            "fibre-block differences must vanish for n >= 2; only psi is free"
        )

    def diff(a, c, b):
        # the parts of Γ - Γ' on each block, 1-based indices; a <= b not
        # assumed here.  Without chi its blocks have no parts.
        a_base, b_base, c_base = a <= n, b <= n, c <= n
        if a_base and b_base and c_base:
            return _delta(psi, a, c, b)
        if not (a_base or b_base or c_base):
            return () if chi is None else _delta(chi, a - n, c - n, b - n)
        if a_base != b_base:
            lam, i = (a, b) if a_base else (b, a)
            if c_base and c == lam and chi is not None:
                return (chi[i - n - 1],)
            if not c_base and c == i:
                return (psi[lam - 1],)
        return ()

    return g.shifted(diff)


# ---------------------------------------------------------------------------
# the invariants from `christoffel_at` arrays G, at one point or stacked
# along leading axes (each is linear in Γ), and their numeric comparison;
# the symbolic tables only print


def pi_array(G):
    """Π of `thomas_pi`, laid out like G: [..., A-1, C-1, B-1]."""
    l = G.shape[-1]
    trace = np.einsum("...aff->...a", G) / (l + 1)
    diag = np.arange(l)
    pi = G.copy()
    pi[..., :, diag, diag] -= trace[..., :, None]
    pi[..., diag, diag, :] -= trace[..., None, :]
    return pi


def grass_arrays(G, n):
    """The four families of `grass_invariants`, as arrays indexed in the
    order of their keys after G's leading axes: base index lam at lam-1,
    fibre index k at k-n-1.  order2 is summed over the simultaneous swap
    (j, al) <-> (i, be)."""
    base, fibre = slice(None, n), slice(n, None)
    en, em = np.eye(n), np.eye(G.shape[-1] - n)
    order1 = (np.einsum("...lki,bx->...lkibx", G[..., base, fibre, fibre], en)
              + np.einsum("...ikx,lb->...lkibx", G[..., fibre, fibre, base], en)
              - np.einsum("...lbx,ki->...lkibx", G[..., base, base, base], em))
    order2 = (np.einsum("...jki,al,bx->...jkiablx", G[..., fibre, fibre, fibre], en, en)
              - np.einsum("...lbj,ax,ki->...jkiablx", G[..., base, base, fibre], en, em)
              - np.einsum("...jbx,al,ki->...jkiablx", G[..., fibre, base, base], en, em))
    lead = tuple(range(G.ndim - 3))
    order2 = order2 + order2.transpose(*lead, *(len(lead) + i for i in (2, 1, 0, 4, 3, 5, 6)))
    return G[..., base, fibre, base], order1, order2, G[..., fibre, base, fibre]


def _largest_differences(families1, families2, lead):
    """max |a - b| over the families of two stacks of arrays whose leading
    axes are `lead`, at each point: NaN where one is NaN."""
    return np.max([np.abs(a - b).reshape(*lead, -1).max(axis=-1) for a, b in zip(families1, families2)], axis=0)


def pi_deviations(G1, G2):
    """max |Π - Π'| at each point of two stacks of `christoffel_at` arrays
    (..., l, l, l): the per-point deviation of `pi_deviation`."""
    return _largest_differences((pi_array(G1),), (pi_array(G2),), G1.shape[:-3])


def grass_deviations(G1, G2, n):
    """max |f - f'| over the four families of `grass_arrays` for split n
    at each point of two stacks: the per-point deviation of
    `invariants_match`."""
    return _largest_differences(grass_arrays(G1, n), grass_arrays(G2, n), G1.shape[:-3])


def _max_difference(g1, g2, deviations, rng):
    """The largest of ``deviations(G1, G2)``, per-point deviations of
    stacked `christoffel_at` arrays, at 12 points drawn uniformly from
    [-1, 1]^l, one batch of points at a time; a point where either Γ fails
    or the deviation is not finite is redrawn."""
    check_same_frame(g1, g2)

    def draw(k):
        points = rng.uniform(-1.0, 1.0, (k, g1.dim))
        (G1, failed1), (G2, failed2) = g1.christoffel_many(points), g2.christoffel_many(points)
        return [failed1.get(i) or failed2.get(i) or outcome(require_finite, deviation, "invariant deviation")
                for i, deviation in enumerate(deviations(G1, G2).tolist())]

    return worst(draw_regular(draw, 12, batch=True)[0])


def pi_deviation(g1, g2, rng):
    """max |Π - Π'| over 12 random points; see `_max_difference`."""
    return _max_difference(g1, g2, pi_deviations, rng)


def invariants_match(g1, g2, n, rng, tol=1e-10):
    """(equal, max deviation) of the four invariant families of g1 and g2
    for split n at 12 random points; see `_max_difference`."""
    _check_split(g1, n)
    max_dev = _max_difference(g1, g2, lambda G1, G2: grass_deviations(G1, G2, n), rng)
    return max_dev <= tol, max_dev


# ---------------------------------------------------------------------------
# JSON spec format


def _singular_points(points):
    if not (isinstance(points, list) and all(
            isinstance(p, list) and all(type(x) in (int, float) for x in p) for p in points)):
        raise ValueError(f"singular_points must be a list of lists of numbers, got {points!r}")
    return tuple(tuple(float(x) for x in p) for p in points)


def connection_from_dict(data):
    """Load a connection from the JSON spec structure.

    {"coords": [...], "n": 1,
     "christoffel": [{"lower": [A, B], "upper": C, "expr": "..."}],
     "singular_points": [[...], ...]}

    `coords` is a list of names.  Equal `expr` texts are parsed once and
    share one tree, which `Connection` checks once; each singular point is a
    list of numbers.
    """
    try:
        coords = json_names(data["coords"], "coords")
        n = json_int(data.get("n", 1), "split n")
        frame = CoordinateFrame(coords, n)
        raw = data.get("christoffel", [])
        singular = _singular_points(data.get("singular_points", []))
    except (KeyError, TypeError, ValueError) as e:
        raise SpecLoadError(f"malformed connection spec: {e}") from None
    if not isinstance(raw, list):
        raise SpecLoadError("malformed connection spec: christoffel must be a list")
    if any(len(p) != frame.dim for p in singular):
        raise SpecLoadError(f"malformed connection spec: singular points need {frame.dim} coordinates")
    entries, parsed = {}, {}     # parsed: entry text -> its tree, shared by equal texts
    for item in raw:
        try:
            a, b = (json_int(v, "lower index") for v in item["lower"])
            c = json_int(item["upper"], "upper index")
            text = item["expr"]
            if not isinstance(text, str):
                raise TypeError(f"expr must be a string, got {text!r}")
        except (KeyError, TypeError, ValueError) as e:
            raise SpecLoadError(f"malformed christoffel item {item!r}: {e}") from None
        if text not in parsed:
            parsed[text] = expr.parse(text, frame)
        e = parsed[text]
        key = (min(a, b), max(a, b), c)
        if key in entries and entries[key] != e:
            raise SpecLoadError(
                f"components ({a},{b})^{c} and ({b},{a})^{c} listed with different expressions"
            )
        entries[key] = e
    return Connection(frame, entries, singular)


def load_connection(path):
    return connection_from_dict(load_json(path))
