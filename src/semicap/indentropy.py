"""Product-measure entropy lower bounds for semiconstrained systems.

The best entropy rate of a site-product measure whose placement-averaged
window statistics satisfy a 1-D system transfers unchanged to every
dimension (see `axial_lift`), so maximising

    (1/n) * sum_v H(p_v)   subject to   averaged_marginal(mu) within eps of Γ

over per-site distributions p_0..p_{n-1} yields dimension-independent lower
bounds on axial capacities.  The problem is nonconvex (the constraint is
multilinear in the sites), but each site enters affinely, which the
optimiser exploits:

* for a single mass-cap system (`ConstraintSet.cap`, however written) the
  constraint carries one KKT multiplier shared by all sites; sites are
  updated in closed form (a Gibbs/softmax step) at fixed multiplier, and
  the multiplier is the root of the cap's excess, bracketed by doubling
  and found by safeguarded (Illinois) regula falsi — per-site
  hard-constraint sweeps would instead stall on a continuum of
  non-stationary fixed points (any split of the budget across sites is
  axis-wise optimal), which is why the multiplier is global.
  The starts run as one batch: each site update and each root-search step
  acts on every start still searching at once, from gather tables built
  once per model, while each start keeps its own multiplier, bracket,
  stopping tests and result, exactly as if it ran alone;
* zero-budget and multi-constraint systems fall back to per-site entropy
  maximisation over the feasible slice, the one-state case of the
  certified pressure dual in `capacity` (one multiplier per constraint,
  warm-started from the site's previous solve), which also polishes the
  ascent's result.  These sweeps run on the same stack of starts: each
  site's affine terms come from the same gather tables for every start
  at once, and then each start solves its own slice and keeps its own stop;
* everything is repeated from random restarts plus i.i.d. and period-2
  warm starts (screened row by row at eps = 0, by the LP distance above
  it), and the winner is certified feasible by an LP distance check.

`hind_com_fixed_n` is the combinatorial counterpart: over words whose cells
hold nonempty symbol subsets, maximise the per-cell choice count subject to
every filling avoiding the forbidden patterns.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semicap.lattice_core import (
    Alphabet,
    PatternDistribution,
    SiteProductMeasure,
    SizeGuardError,
    ValidationError,
    _checked_eps,
    _entropy_vec,
    _whole,
    _window_law,
    averaged_marginal,
    pattern_from_index,
    placements,
    product_entropy,
)
from semicap.capacity import _require_window, pressure_dual
from semicap.scs_model import (
    ConstraintSet,
    _ball_reach,
    find_admissible_word,
    tv_distance_to_set,
)

__all__ = [
    "PeriodicProductMeasure",
    "HindResult",
    "CurvePoint",
    "MultiChoiceWord",
    "HindComResult",
    "IndependenceReport",
    "hind_fixed_n",
    "curve_optimum_01p",
    "axial_lift",
    "fillings_count",
    "hind_com_fixed_n",
    "hind_bound_report",
]

_CERT_TOL = 1e-8
# Slack of the feasibility test on starts and optimised sites, and the
# smallest effective cap the shared-multiplier ascent works on.
_FEAS_SLACK = 1e-12
# Site sweeps stop once the entropy (or, at a fixed multiplier, every site)
# moves by no more than this, or after this many sweeps (hard-constraint
# sweeps, fixed-multiplier sweeps).
_SWEEP_STOP = 1e-13
_HARD_SWEEPS = 400
_FIXED_POINT_SWEEPS = 300
# Shared-multiplier root search: it stops once the bracket is this narrow
# relative to the multiplier, or once the feasible side is this close below
# the cap, or after this many fixed-point solves.
_ROOT_RTOL = 1e-12
_ROOT_ATOL = 1e-14
_ROOT_ITER = 80
# A cap this close above the unconstrained optimum's value counts as slack.
_CAP_SLACK = 1e-15
# Site-slice dual: iteration budget and certificate.
_SLICE_ITER = 100
_SLICE_GAP = 1e-12


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# ---------------------------------------------------------------------------
# Periodic product measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PeriodicProductMeasure:
    """A 1-D product measure repeating with a fixed period."""

    alphabet: Alphabet
    period: int
    site_dists: np.ndarray  # (period, q)

    def __post_init__(self) -> None:
        rows = np.asarray(self.site_dists, dtype=np.float64)
        if rows.shape != (self.period, self.alphabet.size):
            raise ValidationError("site_dists must be (period, alphabet size)")
        # one period as a site-product measure checks the rows as distributions
        site = SiteProductMeasure(self.alphabet, 1, self.period, rows)
        object.__setattr__(self, "site_dists", site.site_dists)

    @classmethod
    def iid(cls, alphabet: Alphabet, dist: Sequence[float]) -> "PeriodicProductMeasure":
        return cls(alphabet, 1, np.asarray(dist, dtype=np.float64)[None, :])

    def entropy_rate(self) -> float:
        return float(np.mean([_entropy_vec(row) for row in self.site_dists]))

    def tile(self, side: int) -> SiteProductMeasure:
        """Extend to the length-`side` cycle (side must be a multiple of the
        period so the cyclic extension is well defined)."""
        if side % self.period:
            raise ValidationError("side must be divisible by the period")
        rows = np.tile(self.site_dists, (side // self.period, 1))
        return SiteProductMeasure(self.alphabet, 1, side, rows)


# ---------------------------------------------------------------------------
# Fixed-n product-measure optimisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HindResult:
    value: float                       # (1/n) * total entropy, bits per cell
    measure: SiteProductMeasure | None
    side: int
    eps: float
    feasible: bool                     # LP-certified within eps (+ tolerance)
    distance: float                    # LP distance of the averaged marginal
    restarts: int                      # starts run (screened restarts plus warm starts)


class _WindowModel:
    """Accounting for the averaged window statistics of a 1-D product
    measure: each constraint row is affine in one site's distribution, and
    `site_gathers` and `terms` give that affine form on a stack of row sets,
    the one copy of it both solvers read."""

    def __init__(self, gamma: ConstraintSet, side: int):
        self.k = _require_window(gamma, "hind_fixed_n")
        side = _whole(side, "side")
        if side < self.k:
            raise ValidationError("side must be at least the window length")
        self.side = side
        self.q = gamma.alphabet.size
        self.table = placements(gamma.shape, side)
        self._gathers = {}

    def site_gathers(self, coeffs: np.ndarray) -> list:
        """Per site v, one coefficient row's affine form const + lin . p_v
        at v as two gathers, built once per row.  Each gather lists, for
        every (window, charged pattern) pair in window then pattern order,
        the flat indices site*q + symbol of the window's cells other than v
        and a weight row.  The linear gather takes the windows holding v,
        its weights holding the pattern's coefficient at the symbol in v's
        slot; the constant gather takes the windows missing v, its weights
        the coefficient alone.  `terms` evaluates either on a stack."""
        key = np.asarray(coeffs, dtype=np.float64).tobytes()
        gathers = self._gathers.get(key)
        if gathers is None:
            charged = [(pattern_from_index(i, self.q, self.k), c)
                       for i, c in enumerate(np.asarray(coeffs).tolist()) if c]
            windows, gathers = self.table.tolist(), []
            for v in range(self.side):
                lin_idx, lin_w, const_idx, const_w = [], [], [], []
                for w in windows:
                    others = [(j, site) for j, site in enumerate(w) if site != v]
                    for a, c in charged:
                        idx = [site * self.q + a[j] for j, site in others]
                        if v in w:
                            lin_idx.append(idx)
                            lin_w.append([c if s == a[w.index(v)] else 0.0
                                          for s in range(self.q)])
                        else:
                            const_idx.append(idx)
                            const_w.append(c)
                gathers.append((
                    (np.array(lin_idx, dtype=np.intp).reshape(len(lin_idx), self.k - 1),
                     np.array(lin_w).reshape(len(lin_idx), self.q)),
                    (np.array(const_idx, dtype=np.intp).reshape(len(const_idx), self.k),
                     np.array(const_w).reshape(len(const_idx), 1))))
            self._gathers[key] = gathers
        return gathers

    def terms(self, flat: np.ndarray, gather) -> np.ndarray:
        """One gather of `site_gathers` on a stack of row sets flattened to
        (S, n*q): the linear terms (S, q) or the constant (S, 1).  The pairs
        are added one after another, so each start's terms do not depend on
        the stack around it (a plain sum may add a single column pairwise)."""
        idx, weights = gather
        if not len(idx):
            return np.zeros((len(flat), weights.shape[1]))
        pairs = flat[:, idx].prod(axis=2)[:, :, None] * weights
        return np.add.accumulate(pairs, axis=1)[:, -1] / self.side


def _sweep_hard(model: _WindowModel, rows: np.ndarray, bounds_eff: list[float],
                coeff_list: Sequence[np.ndarray]) -> np.ndarray:
    """Cyclic per-site entropy maximisation within the feasible slice, on a
    stack of starts: `rows` (S, n, q) is updated in place and returned.

    Each site's slice {p : lin_r . p <= bound_r - const_r} is the one-state
    case of the pressure dual, solved per start and warm-started at that
    start's previous multipliers for the site; every row's terms come from
    one gather over the live starts.  Each start leaves the stack after the
    sweep in which its entropy rose by no more than `_SWEEP_STOP`.
    """
    n = model.side
    gathers = [model.site_gathers(c) for c in coeff_list]
    lams = np.zeros(rows.shape[:2] + (len(coeff_list),))
    prev = np.full(len(rows), -math.inf)
    live = np.arange(len(rows))
    for _ in range(_HARD_SWEEPS):
        sub = rows[live]
        flat = sub.reshape(len(live), -1)
        for v in range(n):
            site = [g[v] for g in gathers]   # per row, (linear, constant)
            lins = np.stack([model.terms(flat, lin) for lin, _ in site], axis=1)
            consts = np.concatenate([model.terms(flat, const) for _, const in site], axis=1)
            for i, s in enumerate(live):
                try:
                    sol = pressure_dual(lins[i], np.subtract(bounds_eff, consts[i]),
                                        [False] * len(coeff_list), model.q, 1, sub[i, v],
                                        lams[s, v], max_iter=_SLICE_ITER, gap_tol=_SLICE_GAP)
                except ValidationError:
                    continue
                sub[i, v], lams[s, v] = sol.measure, sol.lam
        rows[live] = sub
        val = np.array([sum(_entropy_vec(r) for r in start) for start in sub])
        done = val <= prev[live] + _SWEEP_STOP
        prev[live] = val
        live = live[~done]
        if not live.size:
            break
    return rows


def _lagrangian_fixed_point(model: _WindowModel, rows: np.ndarray,
                            coeffs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Cyclic softmax site updates at fixed shared multipliers, on a stack
    of starts: `rows` (S, n, q) is updated in place and returned, and
    `lam` holds one multiplier per start.  Each start leaves the stack
    after the sweep in which none of its sites moved by `_SWEEP_STOP`."""
    gathers = model.site_gathers(coeffs)
    live = np.arange(len(rows))
    for _ in range(_FIXED_POINT_SWEEPS):
        sub = rows[live]
        flat = sub.reshape(len(live), -1)
        scale = -lam[live, None]
        delta = np.zeros(len(live))
        for v, (lin_gather, _) in enumerate(gathers):
            lin = model.terms(flat, lin_gather)
            w = np.exp2(scale * (lin - lin.min(axis=1, keepdims=True)))
            new = w / w.sum(axis=1, keepdims=True)
            np.maximum(delta, np.abs(new - sub[:, v]).max(axis=1), out=delta)
            sub[:, v] = new
        rows[live] = sub
        live = live[~(delta < _SWEEP_STOP)]
        if not live.size:
            break
    return rows


def _optimize_single_cap(model: _WindowModel, starts: np.ndarray,
                         coeffs: np.ndarray, bound_eff: float) -> np.ndarray:
    """Shared-multiplier ascent for a single mass-cap constraint, run on a
    stack of starts (S, n, q); returns one row set per start.

    Each start's multiplier is the root of g(lam) = c . averaged(rows_lam)
    - bound, rows_lam being the fixed point at lam.  Doubling brackets it,
    then Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) narrows the
    bracket, bisecting whenever the secant point leaves it; the rows on the
    feasible side of the bracket are returned, or the (feasible) start
    itself when doubling finds no feasible side.  Every start keeps its own
    bracket, stopping tests and result; the starts only share the loop, each
    fixed-point solve taking the starts still searching.
    """
    value_at = lambda stack: np.array(
        [float(coeffs @ _window_law(r, model.table)) for r in stack])
    solve = lambda stack, lam: _lagrangian_fixed_point(model, stack, coeffs, lam)
    result = solve(starts.copy(), np.zeros(len(starts)))
    v0 = value_at(result)
    # the starts whose cap binds at the unconstrained optimum; the others
    # return it
    live = np.flatnonzero(~(v0 <= bound_eff + _CAP_SLACK))
    if not live.size:
        return result
    lo, hi = np.zeros(len(live)), np.ones(len(live))
    g_lo = v0[live] - bound_eff
    rows_hi = solve(starts[live], hi)
    g_hi = value_at(rows_hi) - bound_eff
    for _ in range(60):
        up = np.flatnonzero(g_hi > 0)
        if not up.size:
            break
        lo[up], g_lo[up], hi[up] = hi[up], g_hi[up], hi[up] * 2.0
        rows_hi[up] = solve(rows_hi[up], hi[up])
        g_hi[up] = value_at(rows_hi[up]) - bound_eff
    # the feasible side's rows and their distance below the cap; a start
    # whose doubling found no feasible side keeps its rows and, its residual
    # being negative, stops.  g_lo and g_hi get Illinois-scaled
    best_feasible, residual = rows_hi, -g_hi
    best_feasible[g_hi > 0] = starts[live[g_hi > 0]]
    moved = np.zeros(len(live), dtype=np.int8)  # +1 after hi moved, -1 after lo
    searching = np.ones(len(live), dtype=bool)
    for _ in range(_ROOT_ITER):
        searching &= ~((hi - lo <= _ROOT_RTOL * hi) | (residual <= _ROOT_ATOL))
        at = np.flatnonzero(searching)
        if not at.size:
            break
        lam = (lo[at] * g_hi[at] - hi[at] * g_lo[at]) / (g_hi[at] - g_lo[at])
        outside = ~((lo[at] < lam) & (lam < hi[at]))
        lam[outside] = 0.5 * (lo[at] + hi[at])[outside]
        rows_lam = solve(best_feasible[at], lam)
        g = value_at(rows_lam) - bound_eff
        above = g > 0
        up, down = at[above], at[~above]
        lo[up], g_lo[up] = lam[above], g[above]
        g_hi[up[moved[up] < 0]] *= 0.5  # Illinois: hi was kept twice
        moved[up] = -1
        hi[down], g_hi[down] = lam[~above], g[~above]
        best_feasible[down], residual[down] = rows_lam[~above], -g[~above]
        g_lo[down[moved[down] > 0]] *= 0.5
        moved[down] = 1
    result[live] = best_feasible
    return result


def _mix_until_feasible(model: _WindowModel, anchor: np.ndarray,
                        target: np.ndarray, bounds_check, mask=None) -> np.ndarray:
    """Move `anchor` toward `target` (sitewise convex mix, optionally on a
    subset of sites), backing the mixing weight off until feasible."""
    t = 1.0
    for _ in range(40):
        rows = anchor.copy()
        sel = range(model.side) if mask is None else mask
        for v in sel:
            rows[v] = (1.0 - t) * anchor[v] + t * target[v]
        if bounds_check(rows):
            return rows
        t *= 0.5
    return anchor.copy()


def hind_fixed_n(gamma: ConstraintSet, side: int, eps: float = 0.0, *,
                 restarts: int = 20, seed: int = 0) -> HindResult:
    """Best entropy rate of a length-`side` cyclic product measure whose
    averaged window distribution lies within TV distance eps of Γ.

    Returns the best local optimum over `restarts` random starts plus the
    i.i.d. and period-2 warm starts.  The optimisers relax each row
    c . mu <= b to c . mu <= b + eps * reach, reach being max c - min c on a
    `<=` row and max c on a zero `==` row (`_ball_reach`): the most c . mu
    can rise within TV distance eps of the row.  Every point of the eps-ball
    around Γ meets these rows; points that meet them but lie outside the
    ball are dropped by the distance check.  The result's `feasible` flag
    is an LP certificate (distance of the averaged marginal re-checked
    exactly); only a certified result is a valid lower bound.
    """
    eps = _checked_eps(eps)
    model = _WindowModel(gamma, side)
    n, q = side, model.q
    rng = np.random.default_rng(seed)
    cap = gamma.cap
    if cap is not None:
        coeff_list, bounds_eff = [cap[0]], [cap[1] + eps]
    elif (gamma.bounds[gamma.equal] != 0.0).any():
        raise ValidationError("hind_fixed_n supports <= and zero-equality constraints")
    else:
        coeff_list = gamma.coeffs
        bounds_eff = [b + eps * _ball_reach(c, e)
                      for c, b, e in zip(gamma.coeffs, gamma.bounds, gamma.equal)]

    def feasible_rows(rows) -> bool:
        avg = _window_law(rows, model.table)
        if cap is not None:
            return float(cap[0] @ avg) <= bounds_eff[0] + _FEAS_SLACK
        if eps == 0.0:
            # distance zero means every row holds: no LP needed
            return all(c.satisfied(avg, _FEAS_SLACK) for c in gamma.constraints)
        mu = PatternDistribution(gamma.alphabet, gamma.shape, avg)
        return tv_distance_to_set(mu, gamma) <= eps + _FEAS_SLACK

    # deterministic anchor: point mass on an admissible word
    w0 = find_admissible_word(side, gamma, eps)
    anchor = None
    if w0 is not None:
        anchor = np.zeros((n, q))
        anchor[np.arange(n), w0.cells] = 1.0

    uniform = np.full((n, q), 1.0 / q)
    starts: list[np.ndarray] = []
    if feasible_rows(uniform):
        starts.append(uniform.copy())
    if anchor is not None:
        starts.append(_mix_until_feasible(model, anchor, uniform, feasible_rows))
        starts.append(
            _mix_until_feasible(model, anchor, uniform, feasible_rows,
                                mask=range(0, n, 2))
        )
        for _ in range(restarts):
            rand = rng.dirichlet(np.ones(q), size=n)
            starts.append(_mix_until_feasible(model, anchor, rand, feasible_rows))
    else:
        for _ in range(restarts):
            rand = rng.dirichlet(np.ones(q), size=n)
            if feasible_rows(rand):
                starts.append(rand)

    if not starts:
        return HindResult(-math.inf, None, side, eps, False, math.inf, 0)

    stack = np.array(starts)
    if cap is not None and bounds_eff[0] > _FEAS_SLACK:
        # single positive cap: the shared-multiplier ascent, then the polish
        stack = _optimize_single_cap(model, stack, cap[0], bounds_eff[0])
    if cap is None or cap[1] < math.inf:   # no polish when no row binds
        stack = _sweep_hard(model, stack, bounds_eff, coeff_list)
    best_rows, best_val = None, -math.inf
    for rows in stack:
        if not feasible_rows(rows):
            continue
        val = sum(_entropy_vec(r) for r in rows) / n
        if val > best_val:
            best_val, best_rows = val, rows

    if best_rows is None:
        return HindResult(-math.inf, None, side, eps, False, math.inf, len(starts))

    measure = SiteProductMeasure(gamma.alphabet, 1, side, best_rows)
    avg = averaged_marginal(measure, gamma.shape)
    distance = tv_distance_to_set(avg, gamma)
    feasible = distance <= eps + _CERT_TOL
    return HindResult(best_val, measure, side, eps, feasible, distance,
                      len(starts))


# ---------------------------------------------------------------------------
# The closed curve for the window-2 cap family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    p: float
    value: float  # (H2(x) + H2(y)) / 2
    x: float
    y: float      # x >= y


def curve_optimum_01p(p: float) -> CurvePoint:
    """Maximise (H2(x) + H2(y))/2 over x*y <= p on the period-2 product
    measures of the window-2 all-ones cap family.

    For p >= 1/4 the unconstrained optimum x = y = 1/2 is feasible; below
    that the optimum sits on x*y = p and is found by golden-section search
    along the curve, parameterised by the larger coordinate (the symmetric
    point x = y = sqrt(p) stops being optimal for small p, where the search
    picks up the asymmetric branch).
    """
    if p < 0 or p > 1:
        raise ValidationError("p must lie in [0, 1]")
    if p >= 0.25:
        return CurvePoint(p, 1.0, 0.5, 0.5)
    if p == 0.0:
        return CurvePoint(p, 0.5, 0.5, 0.0)

    lo, hi = math.sqrt(p), 1.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def g(x: float) -> float:
        return 0.5 * (_h2(x) + _h2(p / x))

    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(200):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = g(d)
    x = 0.5 * (a + b)
    y = p / x
    if y > x:
        x, y = y, x
    return CurvePoint(p, g(x), x, y)


# ---------------------------------------------------------------------------
# Lifting 1-D product measures to d dimensions
# ---------------------------------------------------------------------------

def axial_lift(mu: SiteProductMeasure, dim: int) -> SiteProductMeasure:
    """Lift a 1-D cyclic product measure to d dimensions along diagonals:
    position v receives the 1-D site distribution of (sum of coordinates)
    mod side.  Every residue class has the same number of cells, so the
    entropy rate per cell is preserved exactly.
    """
    if mu.dim != 1:
        raise ValidationError("axial_lift expects a 1-D measure")
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    n = mu.side
    ncells = n ** dim
    rows = np.empty((ncells, mu.alphabet.size))
    for i, v in enumerate(itertools.product(range(n), repeat=dim)):
        rows[i] = mu.site_dists[sum(v) % n]
    return SiteProductMeasure(mu.alphabet, dim, n, rows)


# ---------------------------------------------------------------------------
# Multi-choice words
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultiChoiceWord:
    """A cyclic array whose cells hold nonempty symbol subsets (bitmasks)."""

    alphabet: Alphabet
    cells: np.ndarray  # bitmask per cell, 1 .. 2^q - 1

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=np.int64)
        full = (1 << self.alphabet.size) - 1
        if cells.size and (cells.min() < 1 or cells.max() > full):
            raise ValidationError("cells must be nonempty symbol subsets")
        object.__setattr__(self, "cells", cells)

    @property
    def side(self) -> int:
        return self.cells.shape[0]

    @property
    def dim(self) -> int:
        return self.cells.ndim

    def sets(self) -> list[tuple[int, ...]]:
        q = self.alphabet.size
        return [
            tuple(c for c in range(q) if m & (1 << c))
            for m in self.cells.reshape(-1)
        ]


def fillings_count(word: MultiChoiceWord) -> int:
    """Number of plain words obtained by picking one symbol per cell."""
    total = 1
    for m in word.cells.reshape(-1):
        total *= int(m).bit_count()
    return total


@dataclass(frozen=True, eq=False)
class HindComResult:
    value: float           # log2(best fillings) / cells
    fillings: int
    witness: MultiChoiceWord | None
    side: int


def hind_com_fixed_n(gamma: ConstraintSet, side: int) -> HindComResult:
    """Best multi-choice word of the given cyclic side: maximise the number
    of fillings subject to every filling avoiding every forbidden pattern at
    every cyclic placement.

    The condition is checked locally: a placement is safe iff no choice of
    one symbol per window cell produces a forbidden pattern.  Branch and
    bound over cells in row-major order (subsets in bitmask order), keeping
    the first witness attaining the maximum.
    """
    if gamma.forbidden is None:
        raise ValidationError("need a fully-constrained system")
    shape = gamma.shape
    d = shape.dim
    q = gamma.alphabet.size
    forbidden = [pattern_from_index(int(i), q, len(shape))
                 for i in np.flatnonzero(gamma.forbidden)]
    ncells = side ** d
    nmasks = (1 << q) - 1
    if ncells * math.log2(nmasks) > 30:
        raise SizeGuardError("multi-choice search space too large")

    # placements, grouped by the cell that completes them
    by_cell: list[list[list[int]]] = [[] for _ in range(ncells)]
    for cells in placements(shape, side).tolist():
        by_cell[max(cells)].append(cells)

    masks = np.zeros(ncells, dtype=np.int64)
    best = {"count": 0, "cells": None}
    log_q = math.log2(q)

    def window_safe(cells: list[int]) -> bool:
        for pat in forbidden:
            if all(masks[cell] & (1 << pat[j]) for j, cell in enumerate(cells)):
                return False
        return True

    def dfs(t: int, prod: int) -> None:
        if t == ncells:
            if prod > best["count"]:
                best["count"] = prod
                best["cells"] = masks.copy()
            return
        remaining = ncells - t - 1
        for m in range(1, nmasks + 1):
            size = int(m).bit_count()
            bound = prod * size * (q ** remaining)
            if bound <= best["count"]:
                continue
            masks[t] = m
            if all(window_safe(cells) for cells in by_cell[t]):
                dfs(t + 1, prod * size)
            masks[t] = 0

    dfs(0, 1)
    if best["cells"] is None:
        return HindComResult(-math.inf, 0, None, side)
    witness = MultiChoiceWord(gamma.alphabet,
                              best["cells"].reshape((side,) * d))
    value = math.log2(best["count"]) / ncells if best["count"] else -math.inf
    return HindComResult(value, best["count"], witness, side)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IndependenceReport:
    dim: int
    eps_list: tuple[float, ...]
    sides: tuple[int, ...]
    rows: tuple[HindResult, ...]       # one per (eps, side)
    best: HindResult                   # best certified result at the smallest eps
    lift: SiteProductMeasure           # `best.measure` lifted to `dim` dimensions
    lift_rate: float                   # entropy rate of `lift`
    lift_rate_error: float             # |lift_rate - best.value|
    curve_reference: float | None      # closed-form check for window-2 caps
    lower_bound: float                 # certified d-dimensional lower bound


def hind_bound_report(gamma: ConstraintSet, dim: int,
                      eps_list: Sequence[float] = (0.0, 1e-3, 1e-2),
                      sides: Sequence[int] = (2, 3, 4, 5, 6), *,
                      restarts: int = 20, seed: int = 0) -> IndependenceReport:
    """Run the fixed-n optimiser over a grid of (eps, side), lift the best
    certified measure to `dim` dimensions, and assemble the lower bound."""
    eps_list = tuple(float(e) for e in eps_list)
    sides = tuple(n for n in (int(n) for n in sides) if n >= len(gamma.shape))
    if not sides:
        raise ValidationError("every requested side is shorter than the window")
    rows = []
    for eps in eps_list:
        for n in sides:
            rows.append(hind_fixed_n(gamma, n, eps, restarts=restarts, seed=seed))
    certified = [r for r in rows if r.eps == min(eps_list) and r.feasible]
    if not certified:
        raise ValidationError("no certified product measure found")
    best = max(certified, key=lambda r: r.value)
    lift = axial_lift(best.measure, dim)
    lift_rate = product_entropy(lift) / (best.side ** dim)
    curve_ref = None
    cap = gamma.cap
    if cap is not None and gamma.alphabet.size == 2 and cap[0].tolist() == [0, 0, 0, 1]:
        curve_ref = curve_optimum_01p(cap[1]).value
    return IndependenceReport(
        dim, eps_list, sides, tuple(rows), best, lift, lift_rate,
        abs(lift_rate - best.value), curve_ref, best.value,
    )
