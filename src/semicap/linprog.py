"""Small dense linear-programming solver.

Two-phase primal simplex on a dense tableau, with Bland's anti-cycling
pivoting rule throughout.  Written for the tiny, dense, sometimes degenerate
programs this package generates (the distance-to-polytope LP of
`scs_model`, and the feasibility program of `capacity._feasible_start`, a
few dozen variables); determinism matters more than speed here, and
Bland's rule guarantees termination.

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
    piv = tableau[row]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * piv
    basis[row] = col


def _simplex(tableau: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """Run Bland-rule simplex on a tableau whose last row is the objective."""
    tol = FEASIBILITY_TOL   # a local name: the pivot loops read it per entry
    nrows = tableau.shape[0] - 1
    for _ in range(_MAX_PIVOTS):
        obj = tableau[-1, :ncols]
        # Bland: entering column is the smallest index with negative reduced cost.
        col = -1
        for j in range(ncols):
            if obj[j] < -tol:
                col = j
                break
        if col < 0:
            return "optimal"
        # Ratio test; ties broken by the smallest basis variable index (Bland).
        best_ratio = np.inf
        row = -1
        for r in range(nrows):
            a = tableau[r, col]
            if a > tol:
                ratio = tableau[r, -1] / a
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (row < 0 or basis[r] < basis[row])
                ):
                    best_ratio = ratio
                    row = r
        if row < 0:
            return "unbounded"
        _pivot(tableau, basis, row, col)
    return "iteration_limit"


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LPResult:
    """Minimise c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""
    c = np.asarray(c, dtype=np.float64)
    n = len(c)
    rows = []
    rhs = []
    senses = []
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=np.float64))
        for r, b in zip(a_ub, np.atleast_1d(b_ub)):
            rows.append(r)
            rhs.append(float(b))
            senses.append("<=")
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=np.float64))
        for r, b in zip(a_eq, np.atleast_1d(b_eq)):
            rows.append(r)
            rhs.append(float(b))
            senses.append("=")
    m = len(rows)
    if m == 0:
        # Unconstrained over the nonnegative orthant.
        if (c < -FEASIBILITY_TOL).any():
            return LPResult("unbounded", None, None)
        x = np.zeros(n)
        return LPResult("optimal", x, 0.0)

    nslack = sum(1 for s in senses if s == "<=")
    ncols = n + nslack  # structural + slack columns
    a = np.zeros((m, ncols + m))  # + artificial columns
    b = np.array(rhs)
    si = 0
    for i, (row, s) in enumerate(zip(rows, senses)):
        a[i, :n] = row
        if s == "<=":
            a[i, n + si] = 1.0
            si += 1
    # Make right-hand sides nonnegative, then give every row an artificial.
    for i in range(m):
        if b[i] < 0:
            a[i, :ncols] *= -1.0
            b[i] = -b[i]
        a[i, ncols + i] = 1.0

    tableau = np.zeros((m + 1, ncols + m + 1))
    tableau[:m, : ncols + m] = a
    tableau[:m, -1] = b
    basis = np.array([ncols + i for i in range(m)], dtype=np.int64)

    # Phase 1: minimise the sum of artificials.
    tableau[-1, ncols : ncols + m] = 1.0
    for i in range(m):
        tableau[-1] -= tableau[i]
    status = _simplex(tableau, basis, ncols + m)
    if status != "optimal":
        return LPResult(status, None, None)
    if tableau[-1, -1] < -FEASIBILITY_TOL:  # phase-1 objective is -(sum of artificials)
        return LPResult("infeasible", None, None)

    # Drive leftover artificials out of the basis where possible.
    drop_rows = []
    for r in range(m):
        if basis[r] >= ncols:
            piv_col = -1
            for j in range(ncols):
                if abs(tableau[r, j]) > FEASIBILITY_TOL:
                    piv_col = j
                    break
            if piv_col >= 0:
                _pivot(tableau, basis, r, piv_col)
            else:
                drop_rows.append(r)  # redundant constraint row
    if drop_rows:
        keep = [r for r in range(m) if r not in set(drop_rows)]
        tableau = np.vstack([tableau[keep], tableau[-1:]])
        basis = basis[keep]
        m = len(keep)

    # Phase 2: real objective, artificial columns removed.
    tableau = np.delete(tableau, np.s_[ncols:-1], axis=1)
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for r in range(m):
        if basis[r] < ncols:
            tableau[-1] -= tableau[-1, basis[r]] * tableau[r]
    status = _simplex(tableau, basis, ncols)
    if status != "optimal":
        return LPResult(status, None, None)

    x = np.zeros(ncols)
    for r in range(m):
        if basis[r] < ncols:
            x[basis[r]] = tableau[r, -1]
    xs = x[:n]
    return LPResult("optimal", xs, float(c @ xs))
