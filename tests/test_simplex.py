import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from phasebal.simplex import solve_lp


def test_basic_minimization():
    # min -x - y  s.t. x + y <= 1
    res = solve_lp(np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    assert res.status == "optimal"
    assert np.isclose(res.objective, -1.0)


def test_equality_constraint():
    # min x + 2y  s.t. x + y = 1
    res = solve_lp(np.array([1.0, 2.0]), a_eq=np.array([[1.0, 1.0]]),
                   b_eq=np.array([1.0]))
    assert res.status == "optimal"
    assert np.isclose(res.objective, 1.0)
    assert np.allclose(res.x, [1.0, 0.0])


def test_infeasible_detected():
    # x <= -1 with x >= 0
    res = solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = solve_lp(np.array([-1.0]))
    assert res.status == "unbounded"


def test_degenerate_assignment_polytope():
    # one-hot rows of an assignment-like LP, a classic degeneracy source
    n = 6
    a_eq = np.zeros((n, 3 * n))
    for i in range(n):
        a_eq[i, 3 * i: 3 * i + 3] = 1.0
    rng = np.random.default_rng(0)
    c = rng.normal(size=3 * n)
    res = solve_lp(c, a_eq=a_eq, b_eq=np.ones(n))
    ref = linprog(c, A_eq=a_eq, b_eq=np.ones(n), bounds=(0, None), method="highs")
    assert res.status == "optimal"
    assert np.isclose(res.objective, ref.fun, atol=1e-9)


@st.composite
def random_lp(draw):
    n = draw(st.integers(2, 6))
    m_ub = draw(st.integers(0, 8))
    m_eq = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m_ub, n)) if m_ub else None
    b_ub = rng.normal(size=m_ub) + 1.0 if m_ub else None
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = rng.normal(size=m_eq) if m_eq else None
    return c, a_ub, b_ub, a_eq, b_eq


@given(random_lp())
@settings(max_examples=150, deadline=None)
def test_against_scipy_linprog(lp):
    c, a_ub, b_ub, a_eq, b_eq = lp
    res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if ref.status == 0:
        assert res.status == "optimal"
        assert np.isclose(res.objective, ref.fun,
                          rtol=1e-7, atol=1e-7)
        # returned point is primal feasible
        if a_ub is not None:
            assert np.all(a_ub @ res.x <= b_ub + 1e-7)
        if a_eq is not None:
            assert np.allclose(a_eq @ res.x, b_eq, atol=1e-7)
        assert np.all(res.x >= -1e-9)
    elif ref.status == 2:
        # HiGHS occasionally labels unbounded-with-feasible-rays infeasible;
        # accept either conclusion but never a claimed optimum
        assert res.status in ("infeasible", "unbounded")
    elif ref.status == 3:
        assert res.status == "unbounded"


def test_redundant_equality_rows():
    a_eq = np.array([[1.0, 1.0], [2.0, 2.0]])
    b_eq = np.array([1.0, 2.0])
    res = solve_lp(np.array([1.0, 0.0]), a_eq=a_eq, b_eq=b_eq)
    assert res.status == "optimal"
    assert np.isclose(res.objective, 0.0)


# -- warm start -------------------------------------------------------------------


@st.composite
def one_hot_polytopes(draw):
    """One-hot rows over f users x 3 phases, a switch-budget row and 0-4
    random <= rows that the original point c0 meets, plus a cost and an rng."""
    f = draw(st.integers(1, 6))
    budget = draw(st.integers(0, f))
    m = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nv = 3 * f
    a_eq = np.kron(np.eye(f), np.ones((1, 3)))
    c0 = np.zeros(nv)
    c0[3 * np.arange(f) + rng.integers(0, 3, f)] = 1.0
    rows = rng.normal(size=(m, nv))
    a_ub = np.vstack([-c0, rows])
    b_ub = np.concatenate([[budget - f], rows @ c0 + rng.uniform(0.0, 1.0, m)])
    return rng.normal(size=nv), a_ub, b_ub, a_eq, np.ones(f), c0, rng


def _assert_feasible(res, a_ub, b_ub, a_eq, b_eq):
    assert np.all(a_ub @ res.x <= b_ub + 1e-9)
    assert np.allclose(a_eq @ res.x, b_eq, atol=1e-9)
    assert np.all(res.x >= -1e-9)


@given(one_hot_polytopes())
@settings(max_examples=100, deadline=None)
def test_warm_new_cost_matches_cold(lp):
    c, a_ub, b_ub, a_eq, b_eq, _, rng = lp
    first = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    assert first.status == "optimal"
    again = solve_lp(c, a_ub, b_ub, a_eq, b_eq, warm=first)
    assert again.iterations == 0 and np.array_equal(again.x, first.x)
    c2 = rng.normal(size=c.shape)
    warm = solve_lp(c2, a_ub, b_ub, a_eq, b_eq, warm=first)
    cold = solve_lp(c2, a_ub, b_ub, a_eq, b_eq)
    assert warm.status == cold.status == "optimal"
    assert abs(warm.objective - cold.objective) <= 1e-9
    _assert_feasible(warm, a_ub, b_ub, a_eq, b_eq)


@given(one_hot_polytopes(), st.integers(1, 5), st.booleans())
@settings(max_examples=100, deadline=None)
def test_warm_appended_rows_match_cold(lp, k, new_cost):
    c, a_ub, b_ub, a_eq, b_eq, c0, rng = lp
    first = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    rows = rng.normal(size=(k, len(c)))
    a_ub2 = np.vstack([a_ub, rows])
    b_ub2 = np.concatenate([b_ub, rows @ c0 + rng.uniform(0.0, 0.2, k)])
    c2 = rng.normal(size=c.shape) if new_cost else c
    warm = solve_lp(c2, a_ub2, b_ub2, a_eq, b_eq, warm=first)
    cold = solve_lp(c2, a_ub2, b_ub2, a_eq, b_eq)
    assert warm.status == cold.status == "optimal"
    assert abs(warm.objective - cold.objective) <= 1e-9
    _assert_feasible(warm, a_ub2, b_ub2, a_eq, b_eq)


@given(one_hot_polytopes(), st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_warm_infeasible_row_reports_cold_status(lp, k):
    c, a_ub, b_ub, a_eq, b_eq, c0, rng = lp
    first = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    # k rows every c0-like point meets, then one asking for more than f users
    rows = np.vstack([rng.normal(size=(k, len(c))), -np.ones((1, len(c)))])
    rhs = np.concatenate([rows[:k] @ c0 + 1.0, [-len(b_eq) - 0.5]])
    a_ub2, b_ub2 = np.vstack([a_ub, rows]), np.concatenate([b_ub, rhs])
    warm = solve_lp(c, a_ub2, b_ub2, a_eq, b_eq, warm=first)
    cold = solve_lp(c, a_ub2, b_ub2, a_eq, b_eq)
    assert warm.status == cold.status == "infeasible"
    assert warm.x is None and warm.warm_state is None


@given(one_hot_polytopes(), st.sampled_from(["row", "rhs", "eq_rhs", "fewer_rows"]))
@settings(max_examples=60, deadline=None)
def test_warm_changed_rows_fall_back_to_cold(lp, change):
    c, a_ub, b_ub, a_eq, b_eq, _, rng = lp
    first = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    a_ub, b_ub, b_eq = a_ub.copy(), b_ub.copy(), b_eq.copy()
    if change == "row":
        a_ub[rng.integers(len(a_ub)), rng.integers(len(c))] += 0.25
    elif change == "rhs":
        b_ub[rng.integers(len(b_ub))] += 0.25
    elif change == "eq_rhs":
        b_eq[0] = 2.0
    else:
        a_ub, b_ub = a_ub[:-1], b_ub[:-1]
    warm = solve_lp(c, a_ub, b_ub, a_eq, b_eq, warm=first)
    cold = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    assert warm.status == cold.status
    assert warm.iterations == cold.iterations
    assert (warm.x is None and cold.x is None) or np.array_equal(warm.x, cold.x)
