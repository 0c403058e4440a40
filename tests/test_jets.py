import numpy as np
import pytest

from jetgeo import expr
from jetgeo.errors import DimensionMismatchError, SingularJacobianError, SpecLoadError
from jetgeo.expr import CoordinateFrame
from jetgeo.jets import (
    AffineMap,
    ParamMap,
    SecJet,
    SubJet,
    affine_act,
    cover1,
    cover2,
    jet_from_dict,
    jet_to_dict,
    multi_indices,
    prolong,
    reparam_act,
)
from jetgeo.sampling import spawn_rng

from conftest import compose, is_immersion, is_immersion_at, top_det

X1 = CoordinateFrame(("x1",), 1)
X2 = CoordinateFrame(("x1", "x2"), 2)


def secjet1(n, l, x, u, first):
    return SecJet(n, l, x, u, np.asarray(first, dtype=float))


def secjet2(n, l, x, u, first, second):
    return secjet1(n, l, x, u, first).with_second(np.asarray(second, dtype=float))


def random_secjet2(n, l, rng, min_det=0.3):
    for _ in range(100):
        first = rng.uniform(-1, 1, (l, n))
        if abs(np.linalg.det(first[:n, :])) < min_det:
            continue
        second = rng.uniform(-1, 1, (l, n, n))
        second = 0.5 * (second + np.transpose(second, (0, 2, 1)))
        return secjet2(n, l, rng.uniform(-1, 1, n), rng.uniform(-1, 1, l), first, second)
    raise AssertionError("no admissible jet found")


# ---------------------------------------------------------------------------
# multi-indices and record validation


def test_multi_index_enumeration_order():
    assert multi_indices(2, 2) == ((1,), (1, 1), (1, 2), (2,), (2, 2))


def test_parammap_immersion_check():
    s = ParamMap(X1, (expr.parse("x1^2", X1), expr.parse("x1^3", X1)))
    assert is_immersion_at(s, [0.5])
    assert not is_immersion_at(s, [0.0])


def _subjet_dict(n, m, r, derivs):
    return {"kind": "subjet", "n": n, "m": m, "r": r, "u": [0.0] * (n + m),
            "derivs": [{"i": i, "sigma": list(sigma), "value": 0.0} for i, sigma in derivs]}


def test_subjet_completeness_enforced():
    with pytest.raises(SpecLoadError, match="incomplete"):
        jet_from_dict(_subjet_dict(1, 1, 1, []))
    with pytest.raises(SpecLoadError, match="overfull"):
        jet_from_dict(_subjet_dict(1, 1, 1, [(2, (1,)), (2, (1, 1))]))
    full = [(3, sigma) for sigma in multi_indices(2, 2)]
    assert jet_from_dict(_subjet_dict(2, 1, 2, full)).r == 2
    unsorted = [(3, (2, 1)) if sigma == (1, 2) else (3, sigma) for sigma in multi_indices(2, 2)]
    with pytest.raises(SpecLoadError, match="not sorted"):
        jet_from_dict(_subjet_dict(2, 1, 2, unsorted))


def test_jet_arrays_are_read_only():
    t = secjet2(1, 2, [0.0], [0.0, 0.0], [[1.0], [3.0]], [[[0.0]], [[8.0]]])
    q = cover2(t)
    for array in (t.first_matrix(), t.second_array(), q.first_matrix(), q.second_array()):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_with_second_reads_the_upper_triangle():
    second = np.array([[[1.0, 2.0], [-5.0, 3.0]]])
    q = SubJet(2, 1, (0.0, 0.0, 0.0), [[0.4, 0.5]]).with_second(second)
    assert q.second_array().tolist() == [[[1.0, 2.0], [2.0, 3.0]]]


def test_prolong_rejects_orders_other_than_1_or_2():
    s = ParamMap(X1, (expr.parse("x1", X1), expr.parse("x1^2", X1)))
    for r in (0, 3):
        with pytest.raises(DimensionMismatchError):
            prolong(s, [0.5], r)


def test_prolong_rejects_a_point_of_the_wrong_length():
    s = ParamMap(X1, (expr.parse("x1", X1), expr.parse("x1^2", X1)))
    with pytest.raises(DimensionMismatchError, match="point of length 2"):
        prolong(s, [0.5, 0.1], 1)


def test_secjet_immersion_flags():
    t = secjet1(1, 2, [0.0], [0.0, 0.0], [[2.0], [6.0]])
    assert top_det(t) == 2.0
    assert is_immersion(t)
    flat = secjet1(1, 2, [0.0], [0.0, 0.0], [[0.0], [0.0]])
    assert not is_immersion(flat)


# ---------------------------------------------------------------------------
# prolongation


def test_prolong_polynomial_curve():
    s = ParamMap(X1, (expr.parse("x1", X1), expr.parse("x1^2", X1)))
    t = prolong(s, [1.0], 2)
    assert t.x == (1.0,) and t.u == (1.0, 1.0)
    assert t.first_matrix()[:, 0].tolist() == [1.0, 2.0]
    assert t.second_array()[:, 0, 0].tolist() == [0.0, 2.0]


def test_prolong_affine_map_has_zero_second_derivatives():
    s = ParamMap(X2, tuple(expr.parse(text, X2) for text in ("x1 + 2*x2", "x2 - 1", "3*x1")))
    t = prolong(s, [0.4, -0.2], 2)
    assert np.abs(t.second_array()).max() == 0.0


def test_prolong_matches_finite_differences():
    s = ParamMap(X1, (expr.parse("x1", X1), expr.parse("sin(x1)", X1)))
    t = prolong(s, [0.3], 2)
    h = 1e-6

    def val(x):
        return np.sin(x)

    fd1 = (val(0.3 + h) - val(0.3 - h)) / (2 * h)
    fd2 = (val(0.3 + h) - 2 * val(0.3) + val(0.3 - h)) / h**2
    assert abs(t.first_matrix()[1, 0] - fd1) <= 1e-6
    assert abs(t.second_array()[1, 0, 0] - fd2) <= 1e-4


def test_prolong_truncation_consistency():
    s = ParamMap(X1, (expr.parse("x1", X1), expr.parse("exp(x1)*cos(x1)", X1)))
    assert prolong(s, [0.7], 2).truncate(1) == prolong(s, [0.7], 1)


# ---------------------------------------------------------------------------
# covering projections


def test_cover1_chain_rule_scalar():
    t = secjet1(1, 2, [0.0], [0.5, -0.5], [[2.0], [6.0]])
    q = cover1(t)
    assert q.base == (0.5, -0.5)
    assert q.first_matrix()[0, 0] == 3.0


def test_cover1_identity_top_block():
    rng = spawn_rng(11)
    first = np.vstack([np.eye(2), rng.uniform(-1, 1, (1, 2))])
    t = secjet1(2, 3, [0.0, 0.0], [0.1, 0.2, 0.3], first)
    q = cover1(t)
    assert np.allclose(q.first_matrix(), first[2:, :])


def test_cover1_matches_linear_solve_oracle():
    rng = spawn_rng(12)
    for _ in range(20):
        first = rng.uniform(-1, 1, (4, 2))
        if abs(np.linalg.det(first[:2, :])) < 0.2:
            continue
        t = secjet1(2, 4, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 4), first)
        q = cover1(t)
        # oracle: u^j_{x lam} = u^j_xi u^xi_{x lam} solved as a linear system
        oracle = np.linalg.solve(first[:2, :].T, first[2:, :].T).T
        assert np.abs(q.first_matrix() - oracle).max() <= 1e-12


def test_cover1_rejects_singular_top_block():
    t = secjet1(1, 2, [0.0], [0.0, 0.0], [[0.0], [1.0]])
    with pytest.raises(SingularJacobianError):
        cover1(t)


def test_cover2_trivial_reparametrization():
    t = secjet2(1, 2, [0.0], [0.0, 0.0], [[1.0], [3.0]], [[[0.0]], [[8.0]]])
    assert cover2(t).second_array()[0, 0, 0] == 8.0


def test_cover2_chain_rule_oracle_scalar():
    t = secjet2(1, 2, [0.0], [0.0, 0.0], [[2.0], [6.0]], [[[0.0]], [[8.0]]])
    q = cover2(t)
    # (u2'' u1' - u2' u1'') / u1'^3
    assert abs(q.second_array()[0, 0, 0] - 2.0) <= 1e-14


def test_cover2_reparametrization_invariance():
    rng = spawn_rng(13)
    s = ParamMap(X2, tuple(expr.parse(t, X2) for t in ("x1 + x2^2", "x2 - x1^2", "x1*x2", "sin(x1)")))
    g = AffineMap(np.array([[1.0, 0.5], [-0.25, 1.25]]), np.array([0.2, -0.1]))
    comp = ParamMap(
        X2,
        tuple(
            _substitute_affine(c, g, X2)
            for c in s.components
        ),
    )
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 2)
        direct = cover2(prolong(s, g.apply(x), 2))
        composed = cover2(prolong(comp, x, 2))
        assert direct.base == pytest.approx(composed.base, abs=1e-12)
        assert np.abs(direct.second_array() - composed.second_array()).max() <= 1e-10


def _substitute_affine(component, g, frame):
    """s∘g symbolically: replace x by a x + b inside the component."""
    replacements = {}
    for lam, name in enumerate(frame.names):
        terms = [expr.Const(_fr(g.b[lam]))]
        for xi, other in enumerate(frame.names):
            terms.append(expr.Mul((expr.Const(_fr(g.a[lam, xi])), expr.Sym(other))))
        replacements[name] = expr.Add(tuple(terms))
    return _subst(component, replacements)


def _fr(x):
    from fractions import Fraction

    return Fraction(x).limit_denominator(10**9)


def _subst(e, repl):
    if isinstance(e, expr.Sym):
        return repl.get(e.name, e)
    if isinstance(e, expr.Const):
        return e
    if isinstance(e, expr.Add):
        return expr.Add(tuple(_subst(t, repl) for t in e.terms))
    if isinstance(e, expr.Mul):
        return expr.Mul(tuple(_subst(f, repl) for f in e.factors))
    if isinstance(e, expr.Pow):
        return expr.Pow(_subst(e.base, repl), e.exponent)
    if isinstance(e, expr.Div):
        return expr.Div(_subst(e.num, repl), _subst(e.den, repl))
    if isinstance(e, expr.Func):
        return expr.Func(e.name, _subst(e.arg, repl))
    raise TypeError(type(e).__name__)


def test_cover2_output_symmetric_n2():
    rng = spawn_rng(14)
    for _ in range(10):
        t = random_secjet2(2, 4, rng)
        second = cover2(t).second_array()
        assert np.abs(second - np.transpose(second, (0, 2, 1))).max() == 0.0


def test_cover2_projects_to_cover1():
    rng = spawn_rng(15)
    t = random_secjet2(2, 3, rng)
    assert cover2(t).truncate(1) == cover1(t.truncate(1))


# ---------------------------------------------------------------------------
# affine action


def test_affine_act_scalar_chain_rule():
    g = AffineMap(np.array([[2.0]]), np.array([1.0]))
    t = secjet2(1, 2, [0.5], [0.3, 0.4], [[3.0], [5.0]], [[[4.0]], [[8.0]]])
    out = affine_act(g, t)
    assert out.x == (2.0,)
    assert out.u == t.u
    assert np.allclose(out.first_matrix(), [[1.5], [2.5]])
    assert np.allclose(out.second_array()[:, 0, 0], [1.0, 2.0])


def test_affine_act_identity():
    t = secjet2(1, 2, [0.5], [0.3, 0.4], [[3.0], [5.0]], [[[4.0]], [[8.0]]])
    assert affine_act(AffineMap(np.eye(1), np.zeros(1)), t) == t


def test_affine_act_is_group_action():
    rng = spawn_rng(16)
    g1 = AffineMap(rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2), rng.uniform(-1, 1, 2))
    g2 = AffineMap(rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2), rng.uniform(-1, 1, 2))
    t = random_secjet2(2, 3, rng)
    lhs = affine_act(g2, affine_act(g1, t))
    rhs = affine_act(compose(g2, g1), t)
    assert lhs.x == pytest.approx(rhs.x, abs=1e-12)
    assert np.abs(lhs.first_matrix() - rhs.first_matrix()).max() <= 1e-12
    assert np.abs(lhs.second_array() - rhs.second_array()).max() <= 1e-12


def test_cover1_invariant_under_affine_action():
    rng = spawn_rng(17)
    for _ in range(10):
        t = random_secjet2(2, 4, rng).truncate(1)
        g = AffineMap(rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2), rng.uniform(-1, 1, 2))
        a = cover1(t)
        b = cover1(affine_act(g, t))
        assert a.base == b.base
        assert np.abs(a.first_matrix() - b.first_matrix()).max() <= 1e-12


def test_reparam_act_reduces_to_affine_for_affine_phi():
    rng = spawn_rng(18)
    t = random_secjet2(1, 2, rng)
    g = AffineMap(np.array([[2.0]]), np.array([1.0]))
    phi = [expr.parse("2*x1 + 1", X1)]
    a = affine_act(g, t)
    b = reparam_act(ParamMap(X1, phi), t)
    assert a.x == pytest.approx(b.x)
    assert np.abs(a.second_array() - b.second_array()).max() <= 1e-12


def test_reparam_act_carries_inhomogeneous_term():
    # honest lift of x~ = x^3 + x at a jet with zero second derivatives
    t = secjet2(1, 2, [0.5], [0.0, 0.0], [[1.0], [2.0]], [[[0.0]], [[0.0]]])
    phi = [expr.parse("x1^3 + x1", X1)]
    out = reparam_act(ParamMap(X1, phi), t)
    dphi = 3 * 0.25 + 1
    ddphi = 6 * 0.5
    expected = -1.0 * ddphi / dphi**3
    assert abs(out.second_array()[0, 0, 0] - expected) <= 1e-12


# ---------------------------------------------------------------------------
# JSON


def test_jet_json_round_trip():
    rng = spawn_rng(19)
    t = random_secjet2(1, 2, rng)
    assert jet_from_dict(jet_to_dict(t)) == t
    q = cover2(t)
    assert jet_from_dict(jet_to_dict(q)) == q


def test_jet_json_missing_derivative_is_error():
    data = jet_to_dict(secjet1(1, 2, [0.0], [0.0, 0.0], [[1.0], [1.0]]))
    data["derivs"] = data["derivs"][:-1]
    with pytest.raises(SpecLoadError):
        jet_from_dict(data)
