"""Small dense linear-programming solver.

Two-phase primal simplex on a dense tableau, with Bland's anti-cycling
pivoting rule throughout.  Written for the tiny, dense, sometimes degenerate
programs this package generates (the distance-to-polytope LP of
`scs_model`, and the feasibility program of `capacity._feasible_start`, a
few dozen variables); determinism matters more than speed here, and
Bland's rule guarantees termination.  The tableau is built, pivoted and
read with array operations; the ratio test and the objective-row updates
run row by row, as their tie rule and float sums depend on the row order.

The entry point solves

    minimise    c . x
    subject to  A_ub x <= b_ub,   A_eq x = b_eq,   x >= 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LPResult", "solve_lp", "FEASIBILITY_TOL"]

FEASIBILITY_TOL = 1e-9
# Pivots each simplex phase may take before it reports "iteration_limit".
_MAX_PIVOTS = 20000
# Ratio-test ratios this close count as tied, and Bland's rule then takes
# the row whose basic variable has the least index.
_RATIO_TIE = 1e-12


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    value: float | None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    # Eliminate the pivot column from every other row at once.  Rows with a
    # 0 there stay untouched: subtracting 0 * row would turn -0.0 into +0.0.
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    np.subtract(tableau, factors[:, None] * tableau[row], out=tableau,
                where=(factors != 0.0)[:, None])
    basis[row] = col


def _simplex(tableau: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """Run Bland-rule simplex on a tableau whose last row is the objective."""
    for _ in range(_MAX_PIVOTS):
        # Bland: entering column is the smallest index with negative reduced cost.
        entering = np.flatnonzero(tableau[-1, :ncols] < -FEASIBILITY_TOL)
        if not len(entering):
            return "optimal"
        col = int(entering[0])
        # Ratio test; ties broken by the smallest basis variable index (Bland).
        best_ratio = np.inf
        row = -1
        for r in np.flatnonzero(tableau[:-1, col] > FEASIBILITY_TOL).tolist():
            ratio = tableau[r, -1] / tableau[r, col]
            if ratio < best_ratio - _RATIO_TIE or (
                abs(ratio - best_ratio) <= _RATIO_TIE
                and (row < 0 or basis[r] < basis[row])
            ):
                best_ratio = ratio
                row = r
        if row < 0:
            return "unbounded"
        _pivot(tableau, basis, row, col)
    return "iteration_limit"


def _rows(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    if a is None:
        return np.zeros((0, n)), np.zeros(0)
    return (np.atleast_2d(np.asarray(a, dtype=np.float64)),
            np.atleast_1d(np.asarray(b, dtype=np.float64)))


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LPResult:
    """Minimise c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""
    c = np.asarray(c, dtype=np.float64)
    n = len(c)
    a_ub, b_ub = _rows(a_ub, b_ub, n)
    a_eq, b_eq = _rows(a_eq, b_eq, n)
    n_ub = len(a_ub)
    m = n_ub + len(a_eq)
    ncols = n + n_ub  # structural + slack columns
    # Rows [structural | slack | artificial | rhs], negated where rhs < 0 (the
    # artificial excepted), under phase 1's objective: the sum of artificials.
    b = np.concatenate([b_ub, b_eq])
    sign = np.where(b < 0, -1.0, 1.0)
    tableau = np.zeros((m + 1, ncols + m + 1))
    tableau[:m, :ncols] = sign[:, None] * np.hstack([np.vstack([a_ub, a_eq]), np.eye(m, n_ub)])
    tableau[:m, ncols:-1] = np.eye(m)
    tableau[:m, -1] = sign * b
    tableau[-1, ncols:-1] = 1.0
    basis = np.arange(ncols, ncols + m)
    for i in range(m):
        tableau[-1] -= tableau[i]
    status = _simplex(tableau, basis, ncols + m)
    if status != "optimal":
        return LPResult(status, None, None)
    if tableau[-1, -1] < -FEASIBILITY_TOL:  # phase-1 objective is -(sum of artificials)
        return LPResult("infeasible", None, None)

    # Drive leftover artificials out of the basis; a row with no structural
    # or slack entry to pivot on is a redundant constraint and is dropped.
    keep = np.ones(m + 1, dtype=bool)
    for r in np.flatnonzero(basis >= ncols):
        cols = np.flatnonzero(np.abs(tableau[r, :ncols]) > FEASIBILITY_TOL)
        if len(cols):
            _pivot(tableau, basis, r, cols[0])
        else:
            keep[r] = False
    basis = basis[keep[:-1]]

    # Phase 2: real objective, artificial columns removed.
    tableau = np.delete(tableau[keep], np.s_[ncols:-1], axis=1)
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for r, j in enumerate(basis):
        tableau[-1] -= tableau[-1, j] * tableau[r]
    status = _simplex(tableau, basis, ncols)
    if status != "optimal":
        return LPResult(status, None, None)

    x = np.zeros(ncols)
    x[basis] = tableau[:-1, -1]
    return LPResult("optimal", x[:n], float(c @ x[:n]))
