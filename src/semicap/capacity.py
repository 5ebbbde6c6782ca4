"""Capacity of one-dimensional semiconstrained systems.

The capacity of a 1-D system Γ over length-k windows equals

    sup { H(eta) - H(eta restricted to the first k-1 coordinates) }

over shift-invariant eta in Γ — the conditional entropy of the last window
symbol given the preceding ones, maximised over the polytope cut out by Γ,
the shift-invariance equations and the simplex.  Its convex dual is

    min over lam of  D(lam) = log2 rho(A_lam) + lam . b,

A_lam being the de Bruijn transfer matrix on (k-1)-grams whose edge for
window x weighs 2^(-lam . c(x)) (Marcus & Roth 1992; Khayrallah & Neuhoff
1996).  Every lam gives an upper bound; the Perron Markov measure at the
minimiser lies in Γ and its entropy meets the bound, so `pressure_dual`
returns a witness and a duality gap together (a maximiser that must mix
components of the graph sits at a kink of D, where the dual may stop
short, and says so).  One feasibility LP decides emptiness first.  One
engine solves the dual for capacity and for the site slices of
`indentropy`: damped projected Newton on a stack of slices, of which
`pressure_dual` is a stack of one and `_slice_duals` the one-state case.

`transfer_matrix_capacity` provides the independent cross-check for fully
constrained systems: the log spectral radius of the forbidden-word de
Bruijn transfer matrix, via power iteration.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from semicap.lattice_core import (
    LOG2,
    Alphabet,
    PatternDistribution,
    Shape,
    ValidationError,
    _entropy_vec,
    _whole,
)
from semicap.linprog import solve_lp
from semicap.scs_model import ConstraintSet, EmptySystemError, _checks, count_admissible

__all__ = [
    "CapacityResult",
    "DimensionBound",
    "CountRow",
    "shift_invariant_equations",
    "capacity_1d",
    "transfer_matrix_capacity",
    "internal_capacity_sequence",
    "elimeysch_lower_bound",
    "pressure_dual",
]


# ---------------------------------------------------------------------------
# The pressure dual
# ---------------------------------------------------------------------------

# A row whose bound, once its coefficients are shifted to a zero minimum, is
# at most this is hard: it forbids the patterns it charges outright.
_HARD_TOL = 1e-15
# Row violation a returned measure may add to that of the start point.
_MIX_TOL = 1e-13
# Perron roots of two components this close (relative) count as tied, and
# `_tilted` then takes the component whose measure lies least far outside
# the rows.
_ROOT_TIE = 1e-12
# Newton steps `_perron` takes between restarts from a Collatz-Wielandt
# bound.
_PERRON_RESTART = 500
# A Hessian eigenvalue at most this fraction of the largest counts as flat
# in `_newton_steps`, which then follows the slope along it.
_FLAT_CURV = 1e-9


@dataclass(frozen=True, eq=False)
class GibbsDual:
    """A certified solution of `pressure_dual`."""

    measure: np.ndarray  # shift-invariant window distribution inside the rows
    value: float         # conditional entropy of `measure`, in bits
    bound: float         # D(lam): an upper bound on the maximum
    lam: np.ndarray      # one multiplier per row (0 for hard rows)
    iterations: int
    converged: bool      # |bound - value| <= gap_tol


def _conditional_entropy(mu: np.ndarray, q: int) -> np.ndarray:
    """H(window) - H(window prefix) of each measure of a stack (S, q^k): the
    entropy of the last symbol given the others (for one-symbol windows, the
    plain entropy)."""
    if mu.shape[1] == q:
        return _entropy_vec(mu)
    return _entropy_vec(mu) - _entropy_vec(mu.reshape(len(mu), -1, q).sum(axis=2))


def _cycle_components(allowed: np.ndarray, q: int, k: int):
    """Drop the windows on no cycle of the de Bruijn graph (no shift-invariant
    measure charges them) and split the states left into their strongly
    connected components, as index arrays."""
    s, x = q ** (k - 1), np.arange(q ** k)
    reach = np.zeros((s, s), dtype=bool)
    reach[x[allowed] // q, x[allowed] % s] = True
    while (grown := reach | reach @ reach).sum() > reach.sum():
        reach = grown
    mutual = reach & reach.T
    comps = sorted({tuple(np.flatnonzero(m)) for m in mutual[mutual.diagonal()]})
    return allowed & reach[x % s, x // q], [np.array(st) for st in comps]


def _tilted(c: np.ndarray, b: np.ndarray, slack: np.ndarray, below: np.ndarray,
            allowed: np.ndarray, comps, lam: np.ndarray, q: int, k: int):
    """log2 of the spectral radius of the tilted de Bruijn matrix A_lam
    (k >= 2), block diagonal over `comps`, and the Perron Markov window
    measure eta of a largest root's component (of tied roots, the least far
    outside -slack <= b - c . eta <= below)."""
    e = lam @ c
    # A_lam scaled by 2^top, so the largest weight is 1 whatever the sign of
    # lam; off `allowed`, 2^(top - e) may overflow and is never formed
    top = float(e.min(where=allowed, initial=np.inf))
    w = np.exp2(top - e, out=np.zeros(len(e)), where=allowed)
    s = q ** (k - 1)
    x = np.arange(q ** k)
    a = np.zeros((s, s))
    a[x // q, x % s] = w   # edge prefix(x) -> suffix(x) carries window x
    rho, best = 0.0, None
    for st in comps:
        block = a[np.ix_(st, st)]
        if not block.any():   # weights far below the top may underflow to 0
            continue
        root, rs, ls = _perron(block)
        r, l = np.zeros(s), np.zeros(s)
        r[st], l[st] = rs, ls
        eta = l[x // q] * w * r[x % s]
        eta /= eta.sum()
        g = b - c @ eta
        far = float(np.max(np.maximum(-g - slack, g - below), initial=0.0))
        if best is None or root > best[0] * (1 + _ROOT_TIE) or (
                root >= best[0] * (1 - _ROOT_TIE) and far < best[1]):
            best = (root, far, eta)
        rho = max(rho, root)
    return math.log2(rho) - top, best[2]


def _perron(a: np.ndarray):
    """Spectral radius and right and left Perron vectors of an irreducible
    nonnegative matrix, by linear solves alone.

    Newton's method on det(zI - A) starts above rho; its step
    1 / tr (zI - A)^-1 never passes rho (every eigenvalue contributes a
    term of positive real part), so z falls monotonically to rho, and a
    step shortened by 1e-3 never lands on it.  Close to rho the resolvent
    (zI - A)^-1 >= 0 is dominated by r l^T / (z - rho), so applying it
    twice to the ones vector (inverse iteration) gives both vectors to
    working precision.

    Far above rho each step shrinks z by only about z / len(a), so every
    `_PERRON_RESTART` steps z restarts from the Collatz-Wielandt bound
    max_i (A r)_i / r_i >= rho, with r = (zI - A)^-2 1 > 0 near the Perron
    vector, widened by the same 1.001.
    """
    eye = np.eye(len(a))
    z = 1.001 * min(a.sum(axis=0).max(), a.sum(axis=1).max())   # > rho
    for n in itertools.count(1):
        res = np.linalg.solve(z * eye - a, eye)
        step = 1.0 / np.trace(res)
        if step <= 1e-10 * z:
            break
        if n % _PERRON_RESTART:
            z -= 0.999 * step
        else:
            r = res @ res.sum(axis=1)
            z = min(z, 1.001 * float((a @ r / r).max()))
    r, l = res.sum(axis=1), res.sum(axis=0)
    r, l = res @ (r / r.max()), (l / l.max()) @ res
    r, l = r / r.max(), l / l.max()
    return float(l @ a @ r) / float(l @ r), r, l


def pressure_dual(coeffs, bounds, equal, q: int, k: int, start: np.ndarray,
                  lam=None, *, max_iter: int, gap_tol: float) -> GibbsDual:
    """Maximise the conditional entropy of a shift-invariant measure on
    length-k windows over q symbols subject to rows coeffs . mu <= bounds
    (== where `equal`), by minimising the pressure dual

        D(lam) = log2 rho(A_lam) + lam . b,

    A_lam being the de Bruijn matrix on (k-1)-grams whose edge for window x
    weighs 2^(-lam . c(x)); lam >= 0 on `<=` rows and free on `==` rows.
    k = 1 is the one-state case, entropy maximisation on the simplex.

    Every row is first shifted to a zero minimum coefficient (exact, since
    the mass is 1); a row left with bound 0 is hard and removes the patterns
    it charges, and windows on no cycle go too.  Damped projected Newton,
    its exact Hessian read off the Perron measure (`_hessians`), then runs
    from `lam` (warm start, one entry per row) until the certificate closes:
    the Perron measure at lam meets every row and its conditional entropy,
    D(lam) - lam . grad D(lam), is within gap_tol of D(lam), which bounds
    every feasible entropy from above.  If the budget runs out first, the
    Perron measure is mixed with the feasible `start` just enough to meet
    the rows, and `start` itself is returned when it is better.  `converged`
    needs the bound within gap_tol of the value on both sides: a bound below
    the value certifies nothing.  Raises EmptySystemError when the hard rows
    leave no shift-invariant pattern, or a row cannot be met on the windows
    they leave.

    This runs the engine behind `_slice_duals` on a stack of one slice:
    capacity and the site slices of `indentropy` share one solver.
    """
    c = np.array(coeffs, dtype=np.float64).reshape(1, -1, q ** k)
    lam = np.zeros(c.shape[:2]) if lam is None else np.array(lam, dtype=np.float64)
    mu, lam, value, bound, its, ok = _duals(
        c, np.asarray(bounds, dtype=np.float64).reshape(1, -1), np.asarray(equal, dtype=bool),
        np.asarray(start, dtype=np.float64)[None], lam.reshape(1, -1), q, k, max_iter, gap_tol)
    if not ok[0]:
        raise EmptySystemError("the rows leave no shift-invariant measure")
    return GibbsDual(mu[0], float(value[0]), float(bound[0]), lam[0], int(its[0]),
                     bool(abs(bound[0] - value[0]) <= gap_tol))


def _slice_duals(lins: np.ndarray, rhs: np.ndarray, starts: np.ndarray,
                 lam: np.ndarray, *, max_iter: int, gap_tol: float):
    """`pressure_dual`'s one-state case with `<=` rows, on a stack of S
    slices: slice i maximises H(p) over distributions p with
    lins[i] . p <= rhs[i] (lins (S, R, q)), from the feasible start
    starts[i] and the multipliers lam[i].  Returns the measures (S, q) and
    the multipliers (S, R), each bit for bit what its own call returns; a
    slice whose own call would raise (hard rows that leave no symbol, or a
    row that none of the symbols they leave meets) keeps its start and its
    multipliers."""
    mu, lam, *_ = _duals(lins, rhs, np.zeros(lins.shape[1], dtype=bool), starts, lam,
                         lins.shape[2], 1, max_iter, gap_tol)
    return mu, lam


def _duals(lins, rhs, equal, starts, lam, q, k, max_iter, gap_tol):
    """The pressure dual on a stack of S slices, each with its own rows
    lins[i] . mu <= rhs[i] (== where `equal`), feasible start and warm
    multipliers.  Returns per slice the measure, the multipliers (0 on hard
    rows), the value, the bound, the iteration count and whether the rows
    leave a measure; a slice whose rows leave none keeps its start and
    multipliers.  The slices share the loop, not the arithmetic: each
    product runs with a single slice's operand shapes, so the slices are
    grouped by their soft rows and each Newton step by its free rows, and
    each slice keeps its own line search, stop and fall-back.  For k >= 2,
    `_tilted` runs one slice at a time (each has its own components)."""
    low = lins.min(axis=2)
    c = lins - low[:, :, None]
    b = rhs - low
    soft = b > _HARD_TOL
    allowed = ~((c > _HARD_TOL) & ~soft[:, :, None]).any(axis=1)
    comps = [None] * len(c)
    if k > 1:
        for i in range(len(c)):
            allowed[i], comps[i] = _cycle_components(allowed[i], q, k)
    # a row that no window left by the hard rows meets leaves no measure
    meets = ((c <= (b + _HARD_TOL)[:, :, None]) & allowed[:, None, :]).any(axis=2)
    ok = meets.all(axis=1) & allowed.any(axis=1)
    floored = np.maximum(lam, np.where(equal, -np.inf, 0.0))   # lam >= 0 on `<=` rows
    if ok.all() and soft.all():   # the common case: one group, all rows soft
        return *_soft_duals(c, b, equal, allowed, comps, starts, floored, q, k,
                            max_iter, gap_tol), ok
    mu, lam_out = starts.copy(), lam.copy()
    value, bound, its = np.zeros(len(c)), np.zeros(len(c)), np.zeros(len(c), dtype=int)
    keys = soft @ (1 << np.arange(soft.shape[1]))
    for key in set(keys[ok].tolist()):
        at = np.flatnonzero(ok & (keys == key))
        rows = np.flatnonzero(soft[at[0]])
        pick = at[:, None], rows   # C-ordered like c[soft]
        mu[at], lam_rows, value[at], bound[at], its[at] = _soft_duals(
            c[pick], b[pick], equal[rows], allowed[at], [comps[i] for i in at], starts[at],
            floored[pick], q, k, max_iter, gap_tol)
        lam_out[at] = 0.0
        lam_out[pick] = lam_rows
    return mu, lam_out, value, bound, its, ok


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[i] . y[i] for stacks of vectors, each as one `x @ y` call."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _soft_duals(c, b, equal, allowed, comps, start, lam, q, k, max_iter, gap_tol):
    """`_duals` on slices that share one set of rows, all soft: c
    (S, R, q^k) shifted to a zero minimum, lam (S, R) >= 0 on `<=` rows.
    Each pass computes every slice and keeps the results of those still
    running, which costs less than gathering them."""
    floor = np.where(equal, -np.inf, 0.0)   # lam >= 0 on `<=` rows only
    excess = (c @ start[:, :, None])[:, :, 0] - b
    # a returned measure may exceed a row by _MIX_TOL, or by what start does
    slack = np.maximum(_MIX_TOL, np.where(equal, np.abs(excess), excess))
    below = np.where(equal, slack, np.inf)   # == rows must not fall short either

    def inside(g):
        return ((-g <= slack) & (g <= below)).all(axis=1)

    def dual(lam):
        if k == 1:   # one state: the spectral radius is the total weight
            e = (lam[:, None, :] @ c)[:, 0]
            top = e.min(axis=1, where=allowed, initial=np.inf)
            w = np.exp2(top[:, None] - e, out=np.zeros(e.shape), where=allowed)   # as `_tilted`
            z = w.sum(axis=1)
            log_rho = np.fromiter(map(math.log2, z), float, len(z)) - top
            eta = w / z[:, None]
        else:
            log_rho, eta = np.zeros(len(c)), np.zeros(start.shape)
            for i in range(len(c)):
                log_rho[i], eta[i] = _tilted(c[i], b[i], slack[i], below[i], allowed[i],
                                             comps[i], lam[i], q, k)
        bound = log_rho + _dots(lam, b)
        return lam, bound, eta, b - (c @ eta[:, :, None])[:, :, 0]   # g = grad D

    def kkt(lam, g):   # size of the projected gradient
        x = np.where((lam > floor) | (g < 0.0), g, 0.0)
        return np.sqrt(_dots(x, x))

    def keep(where, new, old):
        if where.all():
            return new
        return [np.where(where.reshape((-1,) + (1,) * (n.ndim - 1)), n, o)
                for n, o in zip(new, old)]

    state = dual(lam)
    live = np.ones(len(c), dtype=bool)
    its = np.zeros(len(c), dtype=int)
    while True:
        lam, bound, eta, g = state
        its += live
        live &= ~(inside(g) & (_dots(lam, g) <= gap_tol)) & (its < max_iter)
        if not live.any():
            break
        d = _newton_dirs(c, eta, g, lam, floor, live, q, k)
        step, todo, accepted = np.ones(len(c)), live.copy(), None
        for _ in range(60):
            trial = dual(np.maximum(lam + step[:, None] * d, floor))
            rise = trial[1] - bound
            # Armijo on D; near the minimiser D is flat to rounding, so there
            # a smaller projected gradient (computed exactly) also passes
            good = rise <= 1e-4 * _dots(g, trial[0] - lam)
            level = todo & ~good
            if level.any():
                level &= rise <= 16 * np.spacing(np.maximum(1.0, np.abs(bound)))
                good |= level & (kkt(trial[0], trial[3]) < kkt(lam, g))
            # only the slices that pass are read from `accepted`
            accepted = trial if accepted is None else keep(todo & good, trial, accepted)
            todo &= ~good
            if not todo.any():
                break
            step[todo] *= 0.5
        # a slice with no progress left at working precision stops
        live &= ~todo & ~(accepted[0] == lam).all(axis=1)
        state = keep(live, accepted, state)

    lam, bound, mu, g = state
    out = ~inside(g)
    if out.any():
        # largest t in [0, 1] with t*eta + (1-t)*start within slack of every row
        a = -g[out] - excess[out]
        ratio = np.full(a.shape, np.inf)
        np.divide(slack[out] - np.sign(a) * excess[out], np.abs(a), out=ratio,
                  where=(a > 0.0) | (equal & (a < 0.0)))
        t = np.minimum(ratio.min(axis=1), 1.0)
        t = np.where(t > 0.0, t, 0.0)[:, None]
        mu[out] = t * mu[out] + (1.0 - t) * start[out]
    value = _conditional_entropy(mu, q)
    back = np.flatnonzero(bound - value > gap_tol)
    if back.size:
        h_start = _conditional_entropy(start[back], q)
        better = value[back] < h_start
        mu[back[better]], value[back[better]] = start[back[better]], h_start[better]
    return mu, lam, value, bound, its


def _newton_dirs(c, eta, g, lam, floor, live, q, k):
    """The Newton direction of D for each `live` slice (0 for the others),
    on the slice's free rows (lam above its floor, or g < 0): the slices
    grouped by that set so that each step sees a single slice's operand
    shapes."""
    free = (lam > floor) | (g < 0.0)
    if live.all() and free.all():   # one group: every slice, every row
        return _newton_steps(_hessians(c, eta, q, k), g, lam, floor == 0.0)
    keys = free @ (1 << np.arange(lam.shape[1]))
    d = np.zeros_like(lam)
    for key in set(keys[live].tolist()):
        at = np.flatnonzero(live & (keys == key))
        rows = np.flatnonzero(free[at[0]])
        pick = at[:, None], rows   # C-ordered like c[free]
        d[pick] = _newton_steps(_hessians(c[pick], eta[at], q, k), g[pick], lam[pick],
                                floor[rows] == 0.0)
    return d


def _hessians(c, eta, q, k):
    """The Hessian of log2 rho(A_lam) for each slice of a stack: ln 2 times
    the asymptotic covariance of the rows along the Perron chain, which eta
    alone fixes.  For k = 1 it is the covariance under eta; for k >= 2 the
    chain moves from state u to the suffix of window x = u.a with
    probability eta_x / pi_u = w_x r_v / (rho r_u) (pi the prefix law), and
    with f the centred rows and (I - Q + 1 pi^T) Z = E[f | state] it is
    Cov_eta(f) + C + C^T, C = sum_x eta_x f_x Z(suffix x)^T.  Each product
    and solve sees one slice, so each slice is its own call's bit for bit."""
    if k == 1:
        f = c - c @ eta[:, :, None]
        return LOG2 * ((f * eta[:, None, :]) @ f.transpose(0, 2, 1))
    (n, r, _), s, x = c.shape, q ** (k - 1), np.arange(q ** k)
    f = c - c @ eta[:, :, None]
    pi = eta.reshape(n, s, q).sum(axis=2)
    move = np.divide(eta, pi[:, x // q], out=np.zeros_like(eta), where=eta > 0.0)
    m = np.eye(s) + pi[:, None, :]   # I - Q + 1 pi^T
    m[:, x // q, x % s] -= move
    g = (f * move[:, None, :]).reshape(n, r, s, q).sum(axis=3)
    z = np.linalg.solve(m, g.transpose(0, 2, 1))   # (S, states, R)
    fe = f * eta[:, None, :]
    cross = fe.reshape(n, r, q, s).sum(axis=2) @ z   # C, its windows summed by suffix
    return LOG2 * (fe @ f.transpose(0, 2, 1) + cross + cross.transpose(0, 2, 1))


def _newton_steps(hess, g, lam, bounded):
    """Newton steps for D on the free multipliers of a stack of systems of
    one size: a division for one row of positive curvature, else the
    stacked eigendecomposition.  Along flat directions of the Hessian
    (parallel rows) D is linear, so the step follows its slope down to the
    nearest bound lam_i = 0 of a `bounded` multiplier."""
    if g.shape[1] == 1:
        h = hess[:, 0]
        div = h > 0.0
        step = -g / np.where(div, h, np.inf)
        rest = np.flatnonzero(~div[:, 0])
    else:
        step, rest = np.zeros_like(g), np.arange(len(g))
    if rest.size:
        curv, vecs = np.linalg.eigh(hess[rest])
        gv = (vecs.transpose(0, 2, 1) @ g[rest][:, :, None])[:, :, 0]
        flat = curv <= _FLAT_CURV * curv[:, -1:]
        s = (-vecs @ np.where(flat, 0.0, gv / np.where(flat, 1.0, curv))[:, :, None])[:, :, 0]
        slope = (vecs @ np.where(flat, gv, 0.0)[:, :, None])[:, :, 0]
        hits = bounded & (slope > 0.0)
        ratio = np.full(slope.shape, np.inf)
        np.divide(lam[rest] + s, slope, out=ratio, where=hits)
        back = ratio.min(axis=1)
        hit = hits.any(axis=1)
        s[hit] -= np.where(0.0 > back[hit], 0.0, back[hit])[:, None] * slope[hit]
        step[rest] = s
    return step


# ---------------------------------------------------------------------------
# Shift invariance
# ---------------------------------------------------------------------------

def shift_invariant_equations(k: int, alphabet: Alphabet) -> list[np.ndarray]:
    """Equality rows (right-hand side 0) characterising shift-invariant
    distributions on length-k windows.

    For every middle word m of length k-1, the mass of patterns with suffix
    m equals the mass of patterns with prefix m; k = 1 needs no equations.
    """
    if k < 1:
        raise ValidationError("window length must be >= 1")
    if k == 1:
        return []
    q, s = alphabet.size, alphabet.size ** (k - 1)
    x, m = np.arange(q ** k), np.arange(s)[:, None]   # m indexes the middle word
    # +1 on a . m (m as suffix), -1 on m . a (m as prefix)
    return list((x % s == m) - (x // q == m).astype(np.float64))


# ---------------------------------------------------------------------------
# Capacity
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CapacityResult:
    value: float
    optimizer: PatternDistribution
    iterations: int
    duality_gap: float
    converged: bool


def _require_window(gamma: ConstraintSet, caller: str) -> int:
    """The window length k of a 1-D system over the full window 0..k-1."""
    if gamma.shape != Shape.segment(len(gamma.shape)):
        raise ValidationError(f"{caller} needs a 1-D system over a full window")
    return len(gamma.shape)


def _feasible_start(gamma: ConstraintSet, k: int) -> np.ndarray:
    """A shift-invariant window measure inside Γ, by one feasibility LP.

    The LP minimises the summed `<=` rows, so the point keeps slack where it
    can: the dual's Perron measure can then be mixed toward it without
    leaving Γ when the dual stops short of its certificate.
    """
    eq = gamma.equal
    shift = shift_invariant_equations(k, gamma.alphabet)
    res = solve_lp(
        gamma.coeffs[~eq].sum(axis=0),
        a_ub=gamma.coeffs[~eq],
        b_ub=gamma.bounds[~eq],
        a_eq=np.vstack([np.ones(gamma.npatterns), *shift, gamma.coeffs[eq]]),
        b_eq=np.concatenate([[1.0], np.zeros(len(shift)), gamma.bounds[eq]]),
    )
    if not res.ok:
        raise EmptySystemError("no shift-invariant measure satisfies the constraints")
    x = np.clip(res.x, 0.0, None)
    return x / x.sum()


def capacity_1d(gamma: ConstraintSet, *, max_iter: int = 50000,
                gap_tol: float = 1e-9) -> CapacityResult:
    """Capacity in bits of a 1-D semiconstrained system.

    Solves the pressure dual of the conditional-entropy maximisation over
    shift-invariant measures in Γ (`pressure_dual`), starting from the
    point of one feasibility LP, which also decides emptiness.  The
    optimizer is the Perron Markov measure at the dual minimiser (mixed
    toward the LP point only as far as needed to stay inside Γ), `value`
    is its conditional entropy, and `duality_gap` is the dual bound minus
    `value`; `iterations` counts dual iterations.
    """
    k, q = _require_window(gamma, "capacity_1d"), gamma.alphabet.size
    sol = pressure_dual(gamma.coeffs, gamma.bounds, gamma.equal, q, k,
                        _feasible_start(gamma, k), max_iter=max_iter, gap_tol=gap_tol)
    opt = PatternDistribution(gamma.alphabet, gamma.shape, sol.measure)
    value = min(max(sol.value, 0.0), math.log2(q))
    gap = max(sol.bound - value, 0.0)
    return CapacityResult(value, opt, sol.iterations, gap, gap <= gap_tol)


# ---------------------------------------------------------------------------
# Transfer-matrix cross-check
# ---------------------------------------------------------------------------

# Power iteration stops once the eigenpair residual is this small relative
# to the iterate's norm, or after this many steps.
_POWER_RTOL = 1e-10
_POWER_ITER = 1_000_000


def transfer_matrix_capacity(forbidden: Iterable[Sequence[int]],
                             alphabet: Alphabet | None = None) -> float:
    """log2 growth rate of the words avoiding the given equal-length words.

    Builds the de Bruijn graph on (k-1)-grams with forbidden transitions
    removed and returns log2 of its spectral radius, estimated by power
    iteration (on A + I, which also handles periodic graphs) to relative
    tolerance `_POWER_RTOL`.
    """
    alphabet = alphabet or Alphabet.binary()
    q = alphabet.size
    pats = [tuple(int(a) for a in p) for p in forbidden]
    if not pats:
        return math.log2(q)  # nothing forbidden: the full shift
    k = len(pats[0])
    if any(len(p) != k for p in pats) or k < 1:
        raise ValidationError("forbidden words must share one positive length")
    bad = set()
    for p in pats:
        idx = 0
        for a in p:
            if not 0 <= a < q:
                raise ValidationError("forbidden word symbol out of range")
            idx = idx * q + a
        bad.add(idx)

    nstates = q ** (k - 1)
    a = np.zeros((nstates, nstates))
    for u in range(nstates):
        for c in range(q):
            wordidx = u * q + c          # the k-word  u . c
            v = wordidx % (q ** (k - 1)) if k > 1 else 0
            if wordidx not in bad:
                a[u, v] += 1.0

    # Power iteration on A + I.  Convergence is judged by the eigenpair
    # residual ||(A+I)v - lam*v||: successive Rayleigh-quotient differences
    # can dip through zero spuriously when the subdominant eigenvalues form
    # a complex pair, which this graph family routinely produces.
    v = np.ones(nstates) / math.sqrt(nstates)
    lam = float("nan")
    for _ in range(_POWER_ITER):
        w = a @ v + v
        nw = float(np.linalg.norm(w))
        if nw < 1e-300:
            raise ValidationError("empty language: no admissible bi-infinite words")
        lam = float(v @ w)  # Rayleigh quotient of A + I (v has unit norm)
        residual = float(np.linalg.norm(w - lam * v))
        v = w / nw
        if residual <= _POWER_RTOL * max(1.0, nw):
            break
    rho = lam - 1.0
    if rho <= 1e-12:
        raise ValidationError("empty language: spectral radius is zero")
    return math.log2(rho)


# ---------------------------------------------------------------------------
# Counting-based capacity sequences and the dimension bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountRow:
    side: int
    count: int
    rate: float  # log2(count) / side^d;  -inf when the count is zero


def internal_capacity_sequence(system, sides: Iterable[int],
                               eps: float = 0.0) -> list[CountRow]:
    """Admissible-word counts and normalised log-counts over a range of sides."""
    d = _checks(system)[0][0][0].dim
    rows = []
    for n in sides:
        c = count_admissible(n, system, eps)
        rate = math.log2(c) / (n ** d) if c > 0 else -math.inf
        rows.append(CountRow(n, c, rate))
    return rows


@dataclass(frozen=True)
class DimensionBound:
    value: float
    dim: int
    degenerate: bool  # True when the bound is vacuous (below zero)


def elimeysch_lower_bound(cap1: float, dim: int) -> DimensionBound:
    """Prior-work lower bound 1 + d*(cap1 - 1) on the d-dimensional axial
    capacity of a binary system with 1-D capacity cap1; degenerates (goes
    negative) once d exceeds 1/(1 - cap1)."""
    dim = _whole(dim, "dimension")
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    value = 1.0 + dim * (cap1 - 1.0)
    return DimensionBound(value, dim, value < 0.0)
