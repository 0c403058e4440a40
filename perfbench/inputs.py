"""Workload inputs, written as JSON spec text from a seed.

Nothing here imports jetgeo: the charts, polynomial tables, admissible
shifts, perturbations and jet files are built from numpy draws and the
closed forms quoted in the docstrings, so a change to the program cannot
change its own workload.  Every function is deterministic in its seed.
"""
from __future__ import annotations

import json
from itertools import combinations_with_replacement

import numpy as np


def rng_for(seed, stream):
    """Generator for one named stream of a workload seed."""
    return np.random.default_rng([int(seed), int(stream)])


def coords(l):
    return [f"u{a}" for a in range(1, l + 1)]


def spec(l, n, entries):
    """Connection spec dict; `entries` maps (A, B, C) with A <= B to text."""
    return {
        "coords": coords(l),
        "n": n,
        "christoffel": [
            {"lower": [a, b], "upper": c, "expr": text}
            for (a, b, c), text in sorted(entries.items())
        ],
        "singular_points": [],
    }


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


# ---------------------------------------------------------------------------
# round spheres in the stereographic chart


def sphere_spec(l, n=1):
    """Levi-Civita connection of 4 (1 + |u|^2)^-2 δ on R^l:

    Γ_A{}^C{}_B = δ^C_A f_B + δ^C_B f_A - δ_AB f_C,  f_A = -2 u_A / (1 + |u|^2).
    """
    den = "(1 + " + " + ".join(f"{u}^2" for u in coords(l)) + ")"

    def f(a, sign):
        return f"{-2 * sign}*u{a}/{den}"

    entries = {}
    for a in range(1, l + 1):
        for b in range(a, l + 1):
            for c in range(1, l + 1):
                if a == b:
                    entries[(a, b, c)] = f(a, 1) if c == a else f(c, -1)
                elif c == a:
                    entries[(a, b, c)] = f(b, 1)
                elif c == b:
                    entries[(a, b, c)] = f(a, 1)
    return spec(l, n, entries)


def sphere_gamma(u):
    """The same Christoffels in numpy, as an (l, l, l) array [A][C][B]."""
    u = np.asarray(u, dtype=float)
    eye = np.eye(len(u))
    f = -2.0 * u / (1.0 + u @ u)
    return (np.einsum("ca,b->acb", eye, f) + np.einsum("cb,a->acb", eye, f)
            - np.einsum("ab,c->acb", eye, f))


def sphere_energy(u, v):
    """Conserved speed 4 |v|^2 / (1 + |u|^2)^2 along a geodesic, row-wise."""
    return 4.0 * np.sum(v * v, axis=-1) / (1.0 + np.sum(u * u, axis=-1)) ** 2


# ---------------------------------------------------------------------------
# random polynomial tables, admissible shifts, perturbations


def polynomial(l, rng):
    """Text of c0 + c1 u_i + c2 u_j u_k with random indices and
    coefficients p/1000, p in [-1000, 1000] \\ {0}.

    The shape is fixed so that the cost of evaluating, parsing and
    simplifying a table depends on the seed only through its sparsity
    pattern, which keeps timings comparable across seeds.
    """
    monomials = [[], [int(rng.integers(1, l + 1))], sorted(int(v) for v in rng.integers(1, l + 1, 2))]
    terms = []
    for mono in monomials:
        p = int(rng.integers(1, 1001)) * (1 if rng.uniform() < 0.5 else -1)
        body = "*".join([f"{abs(p)}/1000"] + [f"u{i}" for i in mono])
        terms.append(("- " if p < 0 else "+ ") + body)
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def random_table(l, rng, fill=0.6):
    """Polynomial Christoffels on round(fill * slots) of the (A <= B, C)
    slots, chosen at random."""
    slots = [(a, b, c) for a in range(1, l + 1) for b in range(a, l + 1) for c in range(1, l + 1)]
    chosen = sorted(int(i) for i in rng.choice(len(slots), round(fill * len(slots)), replace=False))
    return {slots[i]: polynomial(l, rng) for i in chosen}


def admissible_shift(table, l, n, psi, chi):
    """Γ' = Γ - D with D the admissible difference for split n:

    * all base:            D_a^c_b = δ^c_a ψ_b + δ^c_b ψ_a
    * a base λ, b fibre i: D^c = δ^c_λ χ_i (c base), δ^c_i ψ_λ (c fibre)
    * all fibre:           D_a^c_b = δ^c_a χ_b + δ^c_b χ_a
    * otherwise            D = 0.

    psi holds n texts, chi holds l - n texts (empty unless n == 1).
    """
    out = dict(table)
    for a in range(1, l + 1):
        for b in range(a, l + 1):
            for c in range(1, l + 1):
                terms = []
                ab, bb, cb = a <= n, b <= n, c <= n
                if ab and bb and cb:
                    terms += [psi[b - 1]] if c == a else []
                    terms += [psi[a - 1]] if c == b else []
                elif ab != bb:
                    lam, i = (a, b) if ab else (b, a)
                    if cb and c == lam and chi:
                        terms.append(chi[i - n - 1])
                    if not cb and c == i:
                        terms.append(psi[lam - 1])
                elif not (ab or bb or cb) and chi:
                    terms += [chi[b - n - 1]] if c == a else []
                    terms += [chi[a - n - 1]] if c == b else []
                if not terms:
                    continue
                head = f"({table[(a, b, c)]})" if (a, b, c) in table else "0"
                out[(a, b, c)] = head + "".join(f" - ({t})" for t in terms)
    return out


def perturbed(table, l, n, rng):
    """Add 1 to one zeroth-order entry Γ_λ{}^k{}_ξ (λ, ξ base, k fibre),
    which moves the equation's constant term: never equivalent."""
    lam, xi = sorted(int(v) for v in rng.integers(1, n + 1, 2))
    k = int(rng.integers(n + 1, l + 1))
    out = dict(table)
    out[(lam, xi, k)] = f"({table[(lam, xi, k)]}) + 1" if (lam, xi, k) in table else "1"
    return out


# ---------------------------------------------------------------------------
# order-2 section jets over the sphere chart


def multi_indices(n):
    """Sorted multi-indices of order 1 and 2 over 1..n, lexicographic."""
    return sorted([(i,) for i in range(1, n + 1)]
                  + list(combinations_with_replacement(range(1, n + 1), 2)))


def sphere_jets(l, n, count, rng):
    """Section jets on the zero set of the parametrized sphere equation
    (flat parameter connection), half of them reparametrized.

    Returns (jet dicts, expected param residual tables (l, n, n)).  The
    plain jets carry u_xl = -Γ(D, D), so the param residual is 0.  The
    others add D·h for a random symmetric h; their param residual is D·h,
    while the submanifold they describe, and so the unparam residual, is
    unchanged.
    """
    jets, expected = [], []
    for j in range(count):
        x = rng.uniform(-1.0, 1.0, n)
        u = rng.uniform(-0.8, 0.8, l)
        first = rng.uniform(-1.0, 1.0, (l, n))
        first[:n] = np.eye(n) + rng.uniform(-0.3, 0.3, (n, n))
        second = -np.einsum("ACB,Ax,Bl->Cxl", sphere_gamma(u), first, first)
        extra = np.zeros((l, n, n))
        if j % 2:
            h = rng.uniform(-1.0, 1.0, (n, n, n))
            h = 0.5 * (h + np.transpose(h, (0, 2, 1)))
            extra = np.einsum("Ce,exl->Cxl", first, h)
        second = second + extra
        derivs = []
        for a in range(1, l + 1):
            for sigma in multi_indices(n):
                value = first[a - 1, sigma[0] - 1] if len(sigma) == 1 else \
                    second[a - 1, sigma[0] - 1, sigma[1] - 1]
                derivs.append({"A": a, "sigma": list(sigma), "value": float(value)})
        jets.append({"kind": "secjet", "n": n, "l": l, "r": 2, "x": x.tolist(),
                     "u": u.tolist(), "derivs": derivs})
        expected.append(extra)
    return jets, expected
