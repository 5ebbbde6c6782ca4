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
short, and says so).  One feasibility LP decides emptiness first.  The
site slices of `indentropy` are the one-state case (k = 1).

`transfer_matrix_capacity` provides the independent cross-check for fully
constrained systems: the log spectral radius of the forbidden-word de
Bruijn transfer matrix, via power iteration.
"""
from __future__ import annotations

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
)
from semicap.linprog import solve_lp
from semicap.scs_model import ConstraintSet, EmptySystemError, LinearConstraint

__all__ = [
    "ShiftInvariancePolytope",
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


@dataclass(frozen=True, eq=False)
class GibbsDual:
    """A certified solution of `pressure_dual`."""

    measure: np.ndarray  # shift-invariant window distribution inside the rows
    value: float         # conditional entropy of `measure`, in bits
    bound: float         # D(lam): an upper bound on the maximum
    lam: np.ndarray      # one multiplier per row (0 for hard rows)
    iterations: int
    converged: bool      # bound - value <= gap_tol


def _conditional_entropy(mu: np.ndarray, q: int) -> float:
    """H(window) - H(window prefix): the entropy of the last symbol given
    the others (for one-symbol windows, the plain entropy)."""
    if len(mu) == q:
        return _entropy_vec(mu)
    return _entropy_vec(mu) - _entropy_vec(mu.reshape(-1, q).sum(axis=1))


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


def _tilted(c: np.ndarray, allowed: np.ndarray, comps, outside,
            lam: np.ndarray, q: int, k: int):
    """log2 of the spectral radius of the tilted de Bruijn matrix A_lam, block
    diagonal over `comps`, and the Perron Markov window measure of a largest
    root's component (of tied roots, the least far `outside` the rows), with
    the transition data behind it."""
    e = lam @ c
    # A_lam scaled by 2^top, so the largest weight is 1 whatever the sign of lam
    top = float(e.min(where=allowed, initial=np.inf))
    w = np.exp2(top - e) * allowed
    if k == 1:   # one state: the spectral radius is the total weight
        z = float(w.sum())
        return math.log2(z) - top, w / z, None
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
        far = outside(eta)
        if best is None or root > best[0] * (1 + 1e-12) or (
                root >= best[0] * (1 - 1e-12) and far < best[1]):
            best = (root, far, eta, r)
        rho = max(rho, root)
    root, _, eta, r = best
    return math.log2(rho) - top, eta, (w, r, root)


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
    """
    eye = np.eye(len(a))
    z = 1.001 * min(a.sum(axis=0).max(), a.sum(axis=1).max())   # > rho
    for _ in range(500):
        res = np.linalg.solve(z * eye - a, eye)
        step = 1.0 / np.trace(res)
        if step <= 1e-10 * z:
            break
        z -= 0.999 * step
    r, l = res.sum(axis=1), res.sum(axis=0)
    r, l = res @ (r / r.max()), (l / l.max()) @ res
    r, l = r / r.max(), l / l.max()
    return float(l @ a @ r) / float(l @ r), r, l


def _hessian(c: np.ndarray, eta: np.ndarray, trans, q: int, k: int) -> np.ndarray:
    """Hessian of log2 rho(A_lam): ln 2 times the asymptotic covariance of
    the rows along the Perron chain (the plain covariance when k = 1)."""
    f = c - (c @ eta)[:, None]
    if k == 1:
        return LOG2 * ((f * eta) @ f.T)
    w, r, rho = trans
    s = q ** (k - 1)
    x = np.nonzero(eta > 0.0)[0]
    u, v = x // q, x % s
    # window chain on the support: x -> y when suffix(x) == prefix(y)
    p = (v[:, None] == u[None, :]) * (w[x] * r[v] / (rho * r[u]))[None, :]
    pi = eta[x]
    f = f[:, x]
    y = np.linalg.solve(np.eye(len(x)) - p + pi[None, :], f.T)
    cross = (f * pi) @ y
    return LOG2 * (cross + cross.T - (f * pi) @ f.T)


def _newton_step(hess: np.ndarray, g: np.ndarray, lam: np.ndarray,
                 bounded: np.ndarray) -> np.ndarray:
    """Newton step for D on the free multipliers.  Along flat directions of
    the Hessian (parallel rows) D is linear, so the step follows its slope
    down to the nearest bound lam_i = 0 of a `bounded` multiplier."""
    if len(g) == 1 and hess[0, 0] > 0.0:
        return -g / hess[0, 0]
    curv, vecs = np.linalg.eigh(hess)
    gv = vecs.T @ g
    flat = curv <= 1e-9 * curv[-1]
    step = -vecs @ np.where(flat, 0.0, gv / np.where(flat, 1.0, curv))
    slope = vecs @ np.where(flat, gv, 0.0)
    hits = bounded & (slope > 0.0)
    if hits.any():
        step -= max(np.min((lam + step)[hits] / slope[hits]), 0.0) * slope
    return step


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
    the mass is 1); a row left with bound 0 is hard and removes the
    patterns it charges, and windows on no cycle go too.  Damped projected
    Newton with the exact Hessian then runs from `lam` (warm start, one
    entry per row) until the certificate closes: the Perron measure at lam
    meets every row and its conditional entropy, D(lam) - lam . grad D(lam),
    is within gap_tol of D(lam), which bounds every feasible entropy from
    above.  If the budget runs out first, the Perron measure is mixed with
    the feasible `start` just enough to meet the rows, and `start` itself is
    returned when it is better.  Raises EmptySystemError when a row alone
    cannot be met.
    """
    c = np.array(coeffs, dtype=np.float64).reshape(-1, q ** k)
    low = c.min(axis=1)
    c -= low[:, None]
    b = np.asarray(bounds, dtype=np.float64) - low
    if (b < -_HARD_TOL).any():
        raise EmptySystemError("a constraint row cannot be met")
    soft = b > _HARD_TOL
    equal = np.asarray(equal, dtype=bool)
    allowed = np.ones(c.shape[1], dtype=bool)
    if not soft.all():
        allowed = ~(c[~soft] > _HARD_TOL).any(axis=0)
        c, b, equal = c[soft], b[soft], equal[soft]
    allowed, comps = _cycle_components(allowed, q, k) if k > 1 else (allowed, None)
    if not allowed.any():
        raise EmptySystemError("the hard rows leave no shift-invariant pattern")
    floor = np.where(equal, -np.inf, 0.0)   # lam >= 0 on `<=` rows only
    lam_all = np.zeros(len(soft)) if lam is None else np.array(lam, dtype=np.float64)
    lam = np.maximum(lam_all[soft], floor)
    start = np.asarray(start, dtype=np.float64)
    excess = c @ start - b
    # a returned measure may exceed a row by _MIX_TOL, or by what start does
    slack = np.maximum(_MIX_TOL, np.where(equal, np.abs(excess), excess))
    below = np.where(equal, slack, np.inf)   # == rows must not fall short either

    def outside(eta):
        g = b - c @ eta
        return float(np.max(np.maximum(-g - slack, g - below), initial=0.0))

    def dual(lam):
        log_rho, eta, trans = _tilted(c, allowed, comps, outside, lam, q, k)
        return log_rho + float(lam @ b), eta, trans, b - c @ eta   # g = grad D

    def kkt(lam, g):   # size of the projected gradient
        return np.linalg.norm(np.where((lam > floor) | (g < 0.0), g, 0.0))

    bound, eta, trans, g = dual(lam)
    it = 0
    while True:
        it += 1
        inside = bool(((-g <= slack) & (g <= below)).all())
        if (inside and float(lam @ g) <= gap_tol) or it >= max_iter:
            break
        free = (lam > floor) | (g < 0.0)
        d = np.zeros_like(lam)
        d[free] = _newton_step(_hessian(c[free], eta, trans, q, k), g[free],
                               lam[free], ~equal[free])
        step = 1.0
        for _ in range(60):
            new = np.maximum(lam + step * d, floor)
            trial = dual(new)
            rise = trial[0] - bound
            # Armijo on D; near the minimiser D is flat to rounding, so there
            # a smaller projected gradient (computed exactly) also passes
            if rise <= 1e-4 * float(g @ (new - lam)) or (
                    rise <= 16 * np.spacing(max(1.0, abs(bound)))
                    and kkt(new, trial[3]) < kkt(lam, g)):
                break
            step *= 0.5
        else:
            break   # no progress left at working precision
        if (new == lam).all():
            break
        lam = new
        bound, eta, trans, g = trial

    mu = eta
    if not inside:
        # largest t in [0, 1] with t*eta + (1-t)*start within slack of every row
        a = -g - excess
        bind = (a > 0.0) | (equal & (a < 0.0))
        t = max(0.0, float(np.min((slack[bind] - np.sign(a[bind]) * excess[bind])
                                  / np.abs(a[bind]), initial=1.0)))
        mu = t * eta + (1.0 - t) * start
    value = _conditional_entropy(mu, q)
    if bound - value > gap_tol:
        h_start = _conditional_entropy(start, q)
        if value < h_start:
            mu, value = start, h_start
    lam_all = np.zeros(len(soft))
    lam_all[soft] = lam
    return GibbsDual(mu, value, bound, lam_all, it, bound - value <= gap_tol)


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


@dataclass(frozen=True, eq=False)
class ShiftInvariancePolytope:
    """Shift-invariant distributions on Σ^k, as equality constraints."""

    alphabet: Alphabet
    k: int
    equations: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, k: int, alphabet: Alphabet) -> "ShiftInvariancePolytope":
        return cls(alphabet, k, tuple(shift_invariant_equations(k, alphabet)))

    def contains(self, dist: PatternDistribution, tol: float = 1e-8) -> bool:
        probs = dist.float_probs()
        return all(abs(float(r @ probs)) <= tol for r in self.equations)


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


def _require_window(gamma: ConstraintSet) -> int:
    shape = gamma.shape
    if shape.dim != 1 or shape != Shape.segment(len(shape)):
        raise ValidationError("capacity_1d needs a 1-D system over a full window")
    return len(shape)


def _feasible_start(gamma: ConstraintSet, k: int) -> np.ndarray:
    """A shift-invariant window measure inside Γ, by one feasibility LP.

    The LP minimises the summed `<=` rows, so the point keeps slack where it
    can: the dual's Perron measure can then be mixed toward it without
    leaving Γ when the dual stops short of its certificate.
    """
    m = gamma.npatterns
    ub = [c for c in gamma.constraints if c.sense == "<="]
    eq = [c for c in gamma.constraints if c.sense == "=="]
    shift = shift_invariant_equations(k, gamma.alphabet)
    res = solve_lp(
        np.sum([c.coeffs for c in ub], axis=0) if ub else np.zeros(m),
        a_ub=np.array([c.coeffs for c in ub]) if ub else None,
        b_ub=np.array([c.bound for c in ub]) if ub else None,
        a_eq=np.array([np.ones(m), *shift, *(c.coeffs for c in eq)]),
        b_eq=np.array([1.0] + [0.0] * len(shift) + [c.bound for c in eq]),
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
    k, q, cons = _require_window(gamma), gamma.alphabet.size, gamma.constraints
    sol = pressure_dual(
        [c.coeffs for c in cons], [c.bound for c in cons],
        [c.sense == "==" for c in cons], q, k, _feasible_start(gamma, k),
        max_iter=max_iter, gap_tol=gap_tol,
    )
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
    from semicap.scs_model import _checks, count_admissible

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
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    value = 1.0 + dim * (cap1 - 1.0)
    return DimensionBound(value, dim, value < 0.0)
