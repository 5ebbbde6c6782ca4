"""The dense two-phase simplex solver."""
import itertools

import numpy as np
import pytest

from semicap import linprog
from semicap.linprog import solve_lp


def test_basic_minimization():
    # min -x - y  s.t. x + y <= 1  -> corner (1, 0) or (0, 1), value -1
    res = solve_lp(np.array([-1.0, -1.0]),
                   a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]))
    assert res.ok
    assert res.value == pytest.approx(-1.0)
    assert res.x.sum() == pytest.approx(1.0)


def test_equality_rows():
    # min x0 on the probability simplex with x0 = 2*x1
    res = solve_lp(
        np.array([1.0, 0.0, 0.0]),
        a_eq=np.array([[1.0, 1.0, 1.0], [1.0, -2.0, 0.0]]),
        b_eq=np.array([1.0, 0.0]),
    )
    assert res.ok
    assert res.x[0] == pytest.approx(2 * res.x[1])
    assert res.value == pytest.approx(0.0)  # all mass on x2


def test_infeasible_detected():
    res = solve_lp(np.array([1.0]),
                   a_ub=np.array([[1.0], [-1.0]]),
                   b_ub=np.array([1.0, -2.0]))  # x <= 1 and x >= 2
    assert res.status == "infeasible"
    assert not res.ok


def test_unbounded_detected():
    res = solve_lp(np.array([-1.0]))  # min -x, x >= 0 free upward
    assert res.status == "unbounded"


def test_no_rows_nonnegative_cost_is_origin():
    res = solve_lp(np.array([0.0, 2.0]))
    assert res.ok
    assert res.value == 0.0
    assert res.x.tolist() == [0.0, 0.0]


def test_unbounded_with_rows():
    # min -x0  s.t.  x0 - x1 <= 1: x0 = 1 + x1 grows without bound
    res = solve_lp(np.array([-1.0, 0.0]),
                   a_ub=np.array([[1.0, -1.0]]), b_ub=np.array([1.0]))
    assert res.status == "unbounded"
    assert res.x is None and res.value is None


def test_iteration_limit(monkeypatch):
    # every phase checks optimality before its first pivot, so one allowed
    # pivot cannot finish an LP whose phase 1 needs one
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 1)
    res = solve_lp(np.array([-1.0, -1.0]),
                   a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]))
    assert res.status == "iteration_limit"
    assert not res.ok


def test_duplicated_equality_row_is_dropped():
    # the copy is redundant: phase 1 leaves an artificial on a row with no
    # structural entry, which is dropped, and the optimum is unchanged
    c = np.array([1.0, 0.0, 0.0])
    row = np.array([[1.0, 1.0, 1.0]])
    alone = solve_lp(c, a_ub=np.array([[1.0, -2.0, 0.0]]), b_ub=np.array([0.0]),
                     a_eq=row, b_eq=np.array([1.0]))
    twice = solve_lp(c, a_ub=np.array([[1.0, -2.0, 0.0]]), b_ub=np.array([0.0]),
                     a_eq=np.vstack([row, row]), b_eq=np.array([1.0, 1.0]))
    assert alone.ok and twice.ok
    assert twice.value == alone.value
    assert twice.x.tolist() == alone.x.tolist()


def test_negative_rhs_handled():
    # -x <= -3  means x >= 3
    res = solve_lp(np.array([1.0]),
                   a_ub=np.array([[-1.0]]), b_ub=np.array([-3.0]))
    assert res.ok
    assert res.x[0] == pytest.approx(3.0)


def test_degenerate_vertex_terminates():
    # several redundant constraints meeting at one corner
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 1.0, 1.0, 2.0])
    res = solve_lp(np.array([-1.0, -1.0]), a_ub=a, b_ub=b)
    assert res.ok
    assert res.value == pytest.approx(-1.0)


def _vertex_oracle(c, a_ub, b_ub):
    """Brute-force optimum over basic feasible points of
    {x >= 0, a_ub x <= b_ub}: try every choice of active constraints."""
    n = len(c)
    rows = [(a_ub[i], b_ub[i]) for i in range(len(b_ub))]
    rows += [(-np.eye(n)[i], 0.0) for i in range(n)]  # x_i >= 0 as -x <= 0
    best = np.inf
    for active in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[i][0] for i in active])
        b = np.array([rows[i][1] for i in active])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        if np.any(a_ub @ x > b_ub + 1e-9):
            continue
        best = min(best, float(c @ x))
    return best


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(150):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.2, 2.0, size=m)
        # box rows keep the region bounded so the oracle sees every optimum
        a_ub = np.vstack([a_ub, np.eye(n)])
        b_ub = np.concatenate([b_ub, np.full(n, 3.0)])
        res = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        oracle = _vertex_oracle(c, a_ub, b_ub)
        assert res.ok, "origin is feasible, the LP cannot be infeasible"
        assert res.value == pytest.approx(oracle, abs=1e-7)


def test_simplex_equality_with_inequalities():
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = 4
        cap = rng.uniform(0.3, 0.9)
        c = rng.normal(size=m)
        res = solve_lp(
            c,
            a_ub=np.array([[0.0, 0.0, 0.0, 1.0]]), b_ub=np.array([cap]),
            a_eq=np.ones((1, m)), b_eq=np.array([1.0]),
        )
        assert res.ok
        assert res.x.sum() == pytest.approx(1.0)
        assert res.x[3] <= cap + 1e-9
        # oracle: optimum puts min(cap, 1) on index 3 if cheapest, etc.
        order = np.argsort(c)
        mass, val = 1.0, 0.0
        for i in order:
            take = min(mass, cap) if i == 3 else mass
            val += take * c[i]
            mass -= take
            if mass <= 1e-15:
                break
        assert res.value == pytest.approx(val, abs=1e-9)
