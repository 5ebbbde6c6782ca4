"""Product-measure entropy lower bounds for semiconstrained systems.

The best entropy rate of a site-product measure whose placement-averaged
window statistics satisfy a 1-D system transfers unchanged to every
dimension (see `axial_lift`), so maximising

    (1/n) * sum_v H(p_v)   subject to   averaged_marginal(mu) within eps of Γ

over per-site distributions p_0..p_{n-1} yields dimension-independent lower
bounds on axial capacities.  The problem is nonconvex (the constraint is
multilinear in the sites), but each site enters affinely, which the
optimiser exploits:

* for a single mass-cap system the constraint carries one KKT multiplier
  shared by all sites; sites are updated in closed form (a Gibbs/softmax
  step) at fixed multiplier, and the multiplier is the root of the cap's
  excess, bracketed by doubling and found by safeguarded (Illinois)
  regula falsi — per-site hard-constraint sweeps would instead stall on a
  continuum of non-stationary fixed points (any split of the budget across
  sites is axis-wise optimal), which is why the multiplier is global;
* zero-budget and multi-constraint systems fall back to per-site entropy
  maximisation over the feasible slice, the one-state case of the
  certified pressure dual in `capacity` (one multiplier per constraint,
  warm-started from the site's previous solve);
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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from semicap.lattice_core import (
    Alphabet,
    PatternDistribution,
    Shape,
    SiteProductMeasure,
    SizeGuardError,
    ValidationError,
    Word,
    _entropy_vec,
    _window_law,
    averaged_marginal,
    pattern_from_index,
    placements,
    product_entropy,
)
from semicap.capacity import pressure_dual
from semicap.scs_model import (
    ConstraintSet,
    _forbids_patterns,
    _single_set_cap,
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
        object.__setattr__(self, "site_dists", rows)

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
    restarts: int


class _WindowModel:
    """Accounting for the averaged window statistics of a 1-D product measure."""

    def __init__(self, gamma: ConstraintSet, side: int):
        if gamma.shape.dim != 1 or gamma.shape != Shape.segment(len(gamma.shape)):
            raise ValidationError("hind_fixed_n needs a 1-D full-window system")
        self.k = len(gamma.shape)
        if side < self.k:
            raise ValidationError("side must be at least the window length")
        self.side = side
        self.q = gamma.alphabet.size
        self.table = placements(gamma.shape, side)
        self.patterns = [
            pattern_from_index(i, self.q, self.k) for i in range(gamma.npatterns)
        ]
        # per site, every window in table order as (the site's slot in it,
        # or -1 if it misses the site; the other (slot, site) pairs)
        windows = self.table.tolist()
        self.by_site = [[(w.index(v) if v in w else -1,
                          [(j, s) for j, s in enumerate(w) if s != v])
                         for w in windows] for v in range(side)]
        self._charged = {}

    def _charged_patterns(self, coeffs) -> list:
        """Per pattern, the rows that charge it with their coefficients
        (patterns no row charges are left out); built once per row set."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        key = (coeffs.shape, coeffs.tobytes())
        charged = self._charged.get(key)
        if charged is None:
            coeff_rows = coeffs.tolist()
            charged = []
            for pi, a in enumerate(self.patterns):
                terms = [(r, cf[pi]) for r, cf in enumerate(coeff_rows) if cf[pi]]
                if terms:
                    charged.append((a, terms))
            self._charged[key] = charged
        return charged

    def site_coeffs(self, rows: np.ndarray, v: int, coeffs):
        """Write each constraint functional c_r . averaged(mu) as
        const_r + lin_r . p_v;  returns (lin, one row of symbol weights per
        coefficient row, and const, one entry per coefficient row)."""
        lin = [[0.0] * self.q for _ in coeffs]
        const = [0.0] * len(coeffs)
        charged = self._charged_patterns(coeffs)
        site_rows = rows.tolist()
        for slot, others in self.by_site[v]:
            for a, terms in charged:
                prod = 1.0
                for j, site in others:
                    prod *= site_rows[site][a[j]]
                if slot < 0:
                    for r, c in terms:
                        const[r] += c * prod
                else:
                    s = a[slot]
                    for r, c in terms:
                        lin[r][s] += c * prod
        return np.divide(lin, self.side), np.divide(const, self.side)


def _sweep_hard(model: _WindowModel, rows: np.ndarray, bounds_eff: list[float],
                coeff_list: list[np.ndarray]) -> np.ndarray:
    """Cyclic per-site entropy maximisation within the feasible slice.

    Each site's slice {p : lin_r . p <= bound_r} is the one-state case of
    the pressure dual, warm-started at that site's previous multipliers.
    """
    n = model.side
    lams = np.zeros((n, len(coeff_list)))
    prev = -math.inf
    for _ in range(_HARD_SWEEPS):
        for v in range(n):
            lins, consts = model.site_coeffs(rows, v, coeff_list)
            try:
                sol = pressure_dual(lins, np.subtract(bounds_eff, consts),
                                    [False] * len(lins), model.q, 1, rows[v],
                                    lams[v], max_iter=_SLICE_ITER, gap_tol=_SLICE_GAP)
            except ValidationError:
                continue
            rows[v], lams[v] = sol.measure, sol.lam
        val = sum(_entropy_vec(r) for r in rows)
        if val <= prev + _SWEEP_STOP:
            break
        prev = val
    return rows


def _lagrangian_fixed_point(model: _WindowModel, rows: np.ndarray,
                            coeffs: np.ndarray, lam: float) -> np.ndarray:
    """Cyclic softmax site updates at a fixed shared multiplier."""
    n = model.side
    for _ in range(_FIXED_POINT_SWEEPS):
        delta = 0.0
        for v in range(n):
            (lin,), _ = model.site_coeffs(rows, v, [coeffs])
            w = np.exp2(-lam * (lin - lin.min()))
            new = w / w.sum()
            delta = max(delta, float(np.abs(new - rows[v]).max()))
            rows[v] = new
        if delta < _SWEEP_STOP:
            break
    return rows


def _optimize_single_cap(model: _WindowModel, start: np.ndarray,
                         coeffs: np.ndarray, bound_eff: float) -> np.ndarray:
    """Shared-multiplier ascent for a single mass-cap constraint.

    The multiplier is the root of g(lam) = c . averaged(rows_lam) - bound,
    rows_lam being the fixed point at lam.  Doubling brackets it, then
    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) narrows the
    bracket, bisecting whenever the secant point leaves it; the rows on the
    feasible side of the bracket are returned.
    """
    rows = start.copy()
    value_at = lambda r: float(coeffs @ _window_law(r, model.table))
    rows0 = _lagrangian_fixed_point(model, rows.copy(), coeffs, 0.0)
    v0 = value_at(rows0)
    if v0 <= bound_eff + _CAP_SLACK:
        return rows0  # the cap is slack at the unconstrained optimum
    lo, hi = 0.0, 1.0
    g_lo = v0 - bound_eff
    rows_hi = _lagrangian_fixed_point(model, rows.copy(), coeffs, hi)
    g_hi = value_at(rows_hi) - bound_eff
    guard = 0
    while g_hi > 0 and guard < 60:
        lo, g_lo, hi = hi, g_hi, hi * 2.0
        rows_hi = _lagrangian_fixed_point(model, rows_hi, coeffs, hi)
        g_hi = value_at(rows_hi) - bound_eff
        guard += 1
    # the feasible side's rows and their distance below the cap (negative
    # if doubling found no feasible side); g_lo and g_hi get Illinois-scaled
    best_feasible, residual = rows_hi.copy(), -g_hi
    moved = 0  # +1 after hi moved, -1 after lo moved
    for _ in range(_ROOT_ITER):
        if hi - lo <= _ROOT_RTOL * hi or residual <= _ROOT_ATOL:
            break
        lam = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
        rows_lam = _lagrangian_fixed_point(model, best_feasible.copy(), coeffs, lam)
        g = value_at(rows_lam) - bound_eff
        if g > 0:
            lo, g_lo = lam, g
            if moved < 0:
                g_hi *= 0.5  # Illinois: hi was kept twice
            moved = -1
        else:
            hi, g_hi, best_feasible, residual = lam, g, rows_lam, -g
            if moved > 0:
                g_lo *= 0.5
            moved = 1
    return best_feasible


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
    i.i.d. and period-2 warm starts.  The result's `feasible` flag is an LP
    certificate (distance of the averaged marginal re-checked exactly);
    only a certified result is a valid lower bound.
    """
    if eps < 0:
        raise ValidationError("eps must be >= 0")
    model = _WindowModel(gamma, side)
    n, q = side, model.q
    rng = np.random.default_rng(seed)
    cap = _single_set_cap(gamma)
    coeff_list = [c.coeffs for c in gamma.constraints]
    bounds_eff = []
    for c in gamma.constraints:
        b = c.bound
        if c.sense == "<=":
            bounds_eff.append(b + eps)
        else:
            # equality row: inside the eps-ball only the zero-bound case is
            # supported by the sweep (treated as a relaxed cap)
            if b != 0.0:
                raise ValidationError(
                    "hind_fixed_n supports <= and zero-equality constraints"
                )
            bounds_eff.append(eps)

    def feasible_rows(rows) -> bool:
        avg = _window_law(rows, model.table)
        if cap is not None:
            ind, b = cap
            return float(ind @ avg) <= b + eps + _FEAS_SLACK
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
        return HindResult(-math.inf, None, side, eps, False, math.inf, restarts)

    single_cap_positive = cap is not None and (cap[1] + eps) > _FEAS_SLACK
    best_rows, best_val = None, -math.inf
    for start in starts:
        if single_cap_positive:
            rows = _optimize_single_cap(model, start, cap[0], cap[1] + eps)
            rows = _sweep_hard(model, rows, [cap[1] + eps], [cap[0]])
        else:
            rows = _sweep_hard(model, start.copy(), bounds_eff, coeff_list)
        if not feasible_rows(rows):
            continue
        val = sum(_entropy_vec(r) for r in rows) / n
        if val > best_val:
            best_val, best_rows = val, rows

    if best_rows is None:
        return HindResult(-math.inf, None, side, eps, False, math.inf, restarts)

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


def _forbidden_of(gamma: ConstraintSet) -> list[tuple[int, ...]]:
    pats = []
    for c in gamma.constraints:
        if not _forbids_patterns(c):
            raise ValidationError("need a fully-constrained system")
        for idx in np.nonzero(c.coeffs)[0]:
            pats.append(pattern_from_index(int(idx), gamma.alphabet.size,
                                           len(gamma.shape)))
    return pats


def hind_com_fixed_n(gamma: ConstraintSet, side: int) -> HindComResult:
    """Best multi-choice word of the given cyclic side: maximise the number
    of fillings subject to every filling avoiding every forbidden pattern at
    every cyclic placement.

    The condition is checked locally: a placement is safe iff no choice of
    one symbol per window cell produces a forbidden pattern.  Branch and
    bound over cells in row-major order (subsets in bitmask order), keeping
    the first witness attaining the maximum.
    """
    forbidden = _forbidden_of(gamma)
    shape = gamma.shape
    d = shape.dim
    q = gamma.alphabet.size
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
    cap = _single_set_cap(gamma)
    if cap is not None and len(gamma.shape) == 2 and gamma.alphabet.size == 2:
        ind, b = cap
        if ind[3] == 1.0 and ind[:3].sum() == 0.0:
            curve_ref = curve_optimum_01p(b).value
    return IndependenceReport(
        dim, eps_list, sides, tuple(rows), best, lift, lift_rate,
        abs(lift_rate - best.value), curve_ref, best.value,
    )
