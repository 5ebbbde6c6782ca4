"""Product-measure entropy lower bounds for semiconstrained systems.

The best entropy rate of a site-product measure whose placement-averaged
window statistics satisfy a 1-D system transfers unchanged to every
dimension (see `axial_lift`), so maximising

    (1/n) * sum_v H(p_v)   subject to   averaged_marginal(mu) within eps of Γ

over per-site distributions p_0..p_{n-1} yields dimension-independent lower
bounds on axial capacities.  The problem is nonconvex (the constraint is
multilinear in the sites), but each site enters affinely, which the
optimiser exploits:

* a uniform measure that meets the rows is the optimum, and so, for a
  cap on a one-cell window, which reads only the sites' mean law, is the
  i.i.d. measure with the relaxed cap's mass spread evenly (H is concave);
* for any other single mass-cap system (`ConstraintSet.cap`, however
  written) the constraint carries one KKT multiplier shared by all sites;
  sites are updated in closed form (a Gibbs/softmax step) at fixed
  multiplier, and the multiplier is the root of the cap's excess —
  per-site hard-constraint sweeps would instead stall on a continuum of
  non-stationary fixed points (any split of the budget across sites is
  axis-wise optimal), which is why the multiplier is global.  The cap
  binds, since the uniform rows (the fixed point at multiplier 0) break
  it.  Doubling the multiplier from 1 brackets the root, each fixed point
  starting from the one before.  From the bracket's feasible end,
  bordered Newton steps (Keller, 1977) then solve the fixed point and the
  cap's equation together, the multiplier one more unknown, and converge
  quadratically.  A start those steps do not finish on the feasible side
  narrows the bracket by safeguarded (Illinois) regula falsi instead, bit
  for bit as if no bordered step had been tried.
  At each multiplier the site updates run as Gauss-Seidel sweeps, which
  converge only linearly, until a start's largest site move falls below a
  switch; Newton steps on the simultaneous (Jacobi) update's residual, with
  its exact Jacobian from a pair-gather table, then finish that start, and
  a start that fails them (the move does not shrink tenfold in a step, the
  rows leave the open simplex, the matrix is singular, or the end point is
  a saddle of the Lagrangian, which the sweeps would leave) resumes the
  sweeps from where it switched, bit for bit as plain sweeps.  A
  Newton-finished start is a fixed point that can differ in the last bits
  from where plain sweeps would have stopped, by up to about 1e-12 where
  the sweeps crawl, since they stop on a small move, not at the point.
  The starts run as one batch: each site update and each root-search step
  acts on every start still searching at once, from gather tables built
  once per model, while each start keeps its own multiplier, bracket,
  stopping tests and result, exactly as if it ran alone;
* zero-budget and multi-constraint systems fall back to per-site entropy
  maximisation over the feasible slice, which also polishes the ascent's
  result.  These sweeps run on the same stack of starts: each site's
  affine terms come from the same gather tables for every start at once,
  and each start keeps its own stop.  A binary slice is an interval for
  x = p_v(1), so its maximiser is 1/2 clipped to that interval, in closed
  form (`_binary_slices`; hard rows pin x to 0 or 1, as in the dual).
  For q >= 3 the slice is the one-state case of the certified pressure
  dual in `capacity` (one multiplier per constraint, warm-started from
  the site's previous solve), the engine that also solves capacity's
  dual: one stacked call (`capacity._slice_duals`) solves every start's
  slice, bit for bit as the start's own call would;
* everything is repeated from random restarts plus i.i.d. and period-2
  warm starts, and the winner is certified feasible by an LP distance
  check.  The starts are drawn and screened as one stack: the random rows
  are one draw, each start moves from an admissible word's point mass
  toward its target, and at each halving of the mixing weight one stacked
  window law screens every start not yet feasible (row by row at
  eps = 0, by the LP distance above it).

`hind_com_fixed_n` is the combinatorial counterpart: over words whose cells
hold nonempty symbol subsets, maximise the per-cell choice count subject to
every filling avoiding the forbidden patterns.
"""
from __future__ import annotations

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
from semicap.capacity import _HARD_TOL, _require_window, _slice_duals
from semicap.scs_model import (
    ConstraintSet,
    _ball_reach,
    _meets_rows,
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
    "UncertifiedError",
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
# A fixed-multiplier start hands over from sweeps to Newton steps once no
# site moved by this much in a sweep.
_NEWTON_SWITCH = 1e-3
# Newton steps a start may take before it falls back to sweeps.
_NEWTON_STEPS = 8
# Each Newton step must shrink a start's largest Jacobi move by this factor.
_NEWTON_FALL = 0.1
# Shared-multiplier root search: a start stops once its bracket is this
# narrow relative to the multiplier, or once its feasible side is this close
# below the cap (bordered Newton steps aim at the middle of that window), or
# after this many Illinois steps.
_ROOT_RTOL = 1e-12
_ROOT_ATOL = 1e-14
_ROOT_ITER = 80
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

class PeriodicProductMeasure(SiteProductMeasure):
    """A 1-D product measure repeating with a fixed period: one period as
    a `SiteProductMeasure` whose side is the period, so `tile` repeats it
    around any cycle whose length is a multiple of the period."""

    def __init__(self, alphabet: Alphabet, period: int, site_dists) -> None:
        super().__init__(alphabet, 1, period, site_dists)

    @property
    def period(self) -> int:
        return self.side

    @classmethod
    def iid(cls, alphabet: Alphabet, dist: Sequence[float]) -> "PeriodicProductMeasure":
        return cls(alphabet, 1, np.asarray(dist, dtype=np.float64)[None, :])


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
    the one copy of it both solvers read; `site_pairs` and `jacobian` give
    its derivatives in the other sites, for the Newton steps."""

    def __init__(self, gamma: ConstraintSet, side: int):
        self.k = _require_window(gamma, "hind_fixed_n")
        side = _whole(side, "side")
        if side < self.k:
            raise ValidationError("side must be at least the window length")
        self.side = side
        self.q = gamma.alphabet.size
        self.table = placements(gamma.shape, side)
        self._gathers = {}
        self._pairs = {}

    def site_gathers(self, coeffs: np.ndarray) -> list:
        """Per site v, one coefficient row's affine form const + lin . p_v
        at v as two gathers, built once per row.  Each gather lists, for
        every (window, charged pattern) pair in window then pattern order,
        the flat indices site*q + symbol of the window's cells other than v
        (kept as one index column per cell) and a weight row.  The linear
        gather takes the windows holding v, its weights holding the
        pattern's coefficient at the symbol in v's slot; the constant
        gather takes the windows missing v, its weights the coefficient
        alone.  `terms` evaluates either on a stack."""
        key = np.asarray(coeffs, dtype=np.float64).tobytes()
        gathers = self._gathers.get(key)
        if gathers is None:
            charged = [(pattern_from_index(i, self.q, self.k), c)
                       for i, c in enumerate(np.asarray(coeffs).tolist()) if c]
            windows, gathers = self.table.tolist(), []

            def gather(idx, weights, cells, width):
                idx = np.array(idx, dtype=np.intp).reshape(len(idx), cells)
                return tuple(idx.T), np.array(weights).reshape(len(idx), width)

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
                gathers.append((gather(lin_idx, lin_w, self.k - 1, self.q),
                                gather(const_idx, const_w, self.k, 1)))
            self._gathers[key] = gathers
        return gathers

    def terms(self, flat: np.ndarray, gather) -> np.ndarray:
        """One gather of `site_gathers` on a stack of row sets flattened to
        (S, n*q): the linear terms (S, q) or the constant (S, 1).  The pairs
        are added one after another, so each start's terms do not depend on
        the stack around it (a plain sum may add a single column pairwise),
        and each pair's cells are multiplied in order, column by column."""
        cols, weights = gather
        if not len(weights):
            return np.zeros((len(flat), weights.shape[1]))
        if not cols:
            prods = np.ones((len(flat), len(weights)))
        else:
            prods = flat.take(cols[0], axis=1)
            for col in cols[1:]:
                prods *= flat.take(col, axis=1)
        return np.add.accumulate(prods[:, :, None] * weights, axis=1)[:, -1] / self.side

    def site_pairs(self, coeffs: np.ndarray) -> tuple:
        """The derivatives of `site_gathers`' linear terms as one pair
        gather, built once per row (windows of two cells or more): every
        (window, pattern) pair of site v's linear gather adds, for each of
        its cells c = site*q + symbol, its weight row times the product of
        its other cells to d lin_v / d p[c].  The pairs of each (v, c) are
        one group, padded with zero weights to a common width; the table
        holds the groups' flat keys v*n*q + c, their other cells (one index
        column per cell) and their weights.  `jacobian` evaluates it."""
        key = np.asarray(coeffs, dtype=np.float64).tobytes()
        table = self._pairs.get(key)
        if table is None:
            nq = self.side * self.q
            keys, others, weights = [], [], []
            for v, ((cols, w), _) in enumerate(self.site_gathers(coeffs)):
                idx = np.stack(cols, axis=1)
                for j in range(idx.shape[1]):
                    keys.append(v * nq + idx[:, j])
                    others.append(np.delete(idx, j, axis=1))
                    weights.append(w)
            keys = np.concatenate(keys)
            order = np.argsort(keys, kind="stable")
            groups, first, counts = np.unique(keys[order], return_index=True,
                                              return_counts=True)
            at = (np.repeat(np.arange(len(groups)), counts),
                  np.arange(len(order)) - np.repeat(first, counts))
            idx = np.zeros((len(groups), counts.max(), self.k - 2), dtype=np.intp)
            idx[at] = np.concatenate(others)[order]
            pad = np.zeros((len(groups), counts.max(), self.q))
            pad[at] = np.concatenate(weights)[order]
            table = self._pairs[key] = (groups, tuple(idx.transpose(2, 0, 1)), pad)
        return table

    def jacobian(self, flat: np.ndarray, table) -> np.ndarray:
        """`site_pairs` on a stack of row sets flattened to (S, n*q): the
        derivatives d lin_v[s] / d p[c] as (S, n*q, n*q), row v*q + s and
        column c.  Each group's pairs are added one after another, as in
        `terms`, so each start's matrix does not depend on the stack."""
        groups, cols, weights = table
        n, q = self.side, self.q
        if cols:
            prods = flat.take(cols[0], axis=1)
            for col in cols[1:]:
                prods *= flat.take(col, axis=1)
        else:
            prods = np.ones((len(flat),) + weights.shape[:2])
        jac = np.zeros((len(flat), n * n * q, q))
        jac[:, groups] = np.add.accumulate(prods[..., None] * weights, axis=2)[:, :, -1]
        return jac.reshape(-1, n, n * q, q).transpose(0, 1, 3, 2).reshape(
            -1, n * q, n * q) / n


def _entropy_sums(stack: np.ndarray) -> np.ndarray:
    """Total site entropy of each row set of a stack (S, n, q), added site
    by site from 0 (so an all-zero total is +0.0)."""
    return np.add.accumulate(_entropy_vec(stack), axis=1)[:, -1] + 0.0


def _binary_slices(lins: np.ndarray, rhs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The binary site slices max H(p) s.t. lins[i] . p <= rhs[i] (lins
    (S, R, 2)) in closed form, slice by slice: with x = p(1) the slice is
    an interval and its maximiser is 1/2 clipped to it.  Each row is shifted
    to a zero minimum as in the pressure dual; one left with a bound of at
    most `_HARD_TOL` is hard and forbids the symbols it charges, which pins
    x to 0 or 1, and each soft row bounds x on one side.  A slice whose own
    dual would raise (no symbol left, or a row that no symbol left meets)
    and a slice whose soft rows leave an empty interval keep their starts
    (S, 2)."""
    low = lins.min(axis=2)
    c = lins - low[:, :, None]
    b = rhs - low
    soft = b > _HARD_TOL
    allowed = ~((c > _HARD_TOL) & ~soft[:, :, None]).any(axis=1)
    meets = ((c <= (b + _HARD_TOL)[:, :, None]) & allowed[:, None, :]).any(axis=2)
    # a soft row charging symbol 0 caps 1 - x at b / c0, one charging 1 caps
    # x; only a charge above b binds, and b / c < 1 then cannot overflow
    ratio = np.divide(b[:, :, None], c, out=np.full(c.shape, np.inf),
                      where=soft[:, :, None] & (c > b[:, :, None]))
    lo, hi = 1.0 - ratio[:, :, 0].min(axis=1), ratio[:, :, 1].min(axis=1)
    both = allowed.all(axis=1)
    x = np.where(both, np.minimum(np.maximum(0.5, lo), hi), allowed[:, 1])
    keep = ~(meets.all(axis=1) & allowed.any(axis=1)) | (both & (lo > hi))
    return np.where(keep[:, None], starts, np.stack([1.0 - x, x], axis=1))


def _sweep_hard(model: _WindowModel, rows: np.ndarray, bounds_eff: list[float],
                coeff_list: Sequence[np.ndarray]) -> np.ndarray:
    """Cyclic per-site entropy maximisation within the feasible slice, on a
    stack of starts: `rows` (S, n, q) is updated in place and returned.

    Each site's slice {p : lin_r . p <= bound_r - const_r} comes, for every
    row, from one gather over the live starts.  Binary slices are solved in
    closed form (`_binary_slices`).  For q >= 3 the slice is the one-state
    case of the pressure dual, warm-started at each start's previous
    multipliers for the site, and one `_slice_duals` call solves every live
    start's slice, bit for bit as its own `pressure_dual` call would.  Each
    start leaves the stack after the sweep in which its entropy, summed over
    the sites in order, rose by no more than `_SWEEP_STOP`.
    """
    n = model.side
    binary = model.q == 2
    gathers = [model.site_gathers(c) for c in coeff_list]
    if not binary:
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
            rhs = np.subtract(bounds_eff, consts)
            if binary:
                sub[:, v] = _binary_slices(lins, rhs, sub[:, v])
            else:
                sub[:, v], lams[live, v] = _slice_duals(
                    lins, rhs, sub[:, v], lams[live, v],
                    max_iter=_SLICE_ITER, gap_tol=_SLICE_GAP)
        rows[live] = sub
        val = _entropy_sums(sub)
        done = val <= prev[live] + _SWEEP_STOP
        prev[live] = val
        live = live[~done]
        if not live.size:
            break
    return rows


def _sweeps(model: _WindowModel, gathers: list, rows: np.ndarray, lam: np.ndarray,
            live: np.ndarray, budget: int, switch: float, made: np.ndarray) -> None:
    """Up to `budget` cyclic softmax sweeps on the starts `live` of a stack.
    A start leaves after the sweep in which none of its sites moved by
    `switch` (at least `_SWEEP_STOP`); a start that leaves having moved by
    `_SWEEP_STOP` or more gets the number of that sweep in `made`."""
    for sweep in range(1, budget + 1):
        sub = rows[live]
        before = sub.copy()
        flat = sub.reshape(len(live), -1)
        scale = -lam[live, None]
        for v, gather in enumerate(gathers):
            lin = model.terms(flat, gather)
            w = np.exp2(scale * (lin - np.minimum.reduce(lin, axis=1, keepdims=True)))
            sub[:, v] = w / np.add.reduce(w, axis=1, keepdims=True)
        # each site moves once a sweep: a start's largest site move is its
        # largest move over the sweep
        delta = np.maximum.reduce(np.abs(sub - before), axis=(1, 2))
        rows[live] = sub
        settled = delta < switch
        if settled.any():
            made[live[settled & ~(delta < _SWEEP_STOP)]] = sweep
            live = live[~settled]
            if not live.size:
                break


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.linalg.solve` on a stack (S, m, m) by (S, m, 1), one matrix at a
    time once some matrix is singular, whose solution is then NaN."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i:i + 1], b[i:i + 1])[0]
            except np.linalg.LinAlgError:
                pass
        return out


def _local_max(jac: np.ndarray, x: np.ndarray, scale: np.ndarray, n: int,
               q: int) -> np.ndarray:
    """Whether each fixed point x of a stack (S, n*q) is a strict local
    maximum of its start's Lagrangian sum_v H(p_v) - lam c . averaged(p)
    on the product of simplices, `jac` being d lin / d x there and `scale`
    -lam: its Hessian, -1/(x ln2) on the diagonal and -lam J off it, is
    negative definite on the directions that keep each site's sum, taken
    as the first q - 1 symbols minus the last (scaled by ln2).  The sweeps
    ascend the Lagrangian one site at a time, so they settle only at such
    points; Newton steps also find its saddles."""
    m = n * q
    hess = (scale * math.log(2.0))[:, None, None] * jac
    hess[:, np.arange(m), np.arange(m)] -= 1.0 / x
    hess = hess.reshape(-1, n, q, n, q)
    hess = hess[:, :, :-1] - hess[:, :, -1:]
    hess = (hess[..., :-1] - hess[..., -1:]).reshape(-1, n * (q - 1), n * (q - 1))
    return np.linalg.eigvalsh(hess)[:, -1] < 0.0


def _cap_values(model: _WindowModel, coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Per start of a stack (S, n, q), the dot product `coeffs @ law` that
    a start alone would take."""
    return (coeffs @ _window_law(stack, model.table)[:, :, None])[:, 0]


def _newton_finish(model: _WindowModel, rows: np.ndarray, coeffs: np.ndarray,
                   lam: np.ndarray, starts: np.ndarray,
                   bound: float | None = None) -> np.ndarray:
    """Newton steps on the Jacobi residual T(x) - x of the starts `starts`
    of a stack, T updating every site from the same rows x: each start
    whose largest move T(x) - x falls below `_SWEEP_STOP` at a local
    maximum (`_local_max`) gets its x written to `rows`; returns the
    others, whose rows are untouched.

    The Jacobian is exact: d T_v / d lin_v = -lam ln2 (diag p_v - p_v p_v^T)
    at p_v = T_v(x) times d lin_v / d x from `site_pairs`, whose matrix J
    also gives lin = J x / (k - 1), each pair's product holding k - 1
    cells.  A start fails when its rows lie outside the open simplex (at
    the switch, or after a step, also a step from a singular matrix), once
    its largest move does not shrink by `_NEWTON_FALL` in a step, or after
    `_NEWTON_STEPS` steps.

    With a `bound`, the steps are bordered (Keller, 1977): each start's
    multiplier is one more unknown, and the cap's value c . averaged(x) one
    more equation, aimed at the middle of the window [bound - _ROOT_ATOL,
    bound] that `_optimize_single_cap`'s stop accepts.  The matrix d T / d x
    - I gets d T / d lam = -ln2 p_v (lin_v - p_v . lin_v) as a last column
    and the cap's gradient, lin, as a last row.  A start then finishes only
    with its value in that window, and gets its multiplier written to
    `lam`; its move includes the cap's distance from the window's middle,
    and it also fails once its multiplier is not positive.  The move after
    its first step is not held to the shrink test: that step leaves a fixed
    point whose one residual was the cap's, and trades it for a Jacobi
    residual of about the same size."""
    n, q, nq = model.side, model.q, model.side * model.q
    bordered = bound is not None
    table = model.site_pairs(coeffs)
    x = rows[starts].reshape(len(starts), nq)
    scale, prev = -lam[starts], np.full(len(starts), math.inf)
    failed = []
    for step in range(_NEWTON_STEPS + 1):
        inside = np.minimum.reduce(x, axis=1) > 0.0   # also False on NaN
        if bordered:
            inside &= scale < 0.0
        failed.append(starts[~inside])
        x, starts, scale, prev = x[inside], starts[inside], scale[inside], prev[inside]
        if not len(x):
            break
        jac = model.jacobian(x, table)
        lin = (jac @ x[:, :, None]).reshape(len(x), n, q) / (model.k - 1)
        w = np.exp2(scale[:, None, None]
                    * (lin - np.minimum.reduce(lin, axis=2, keepdims=True)))
        p = w / np.add.reduce(w, axis=2, keepdims=True)
        residual = x - p.reshape(-1, nq)
        move = np.maximum.reduce(np.abs(residual), axis=1)
        met = move < _SWEEP_STOP
        if bordered:
            below = bound - _cap_values(model, coeffs, x.reshape(-1, n, q))
            excess = 0.5 * _ROOT_ATOL - below
            move = np.maximum(move, np.abs(excess))
            met &= (0.0 <= below) & (below <= _ROOT_ATOL)
        done = met.copy()
        if met.any():
            done[met] = _local_max(jac[met], x[met], scale[met], n, q)
            rows[starts[done]] = x[done].reshape(-1, n, q)
            if bordered:
                lam[starts[done]] = -scale[done]
        shrunk = (move <= _NEWTON_FALL * prev) | (bordered and step == 1)
        go = ~met & shrunk & (step < _NEWTON_STEPS)
        failed.append(starts[~done & ~go])
        if not go.any():
            break
        jac, p, residual, x = jac[go].reshape(-1, n, q, nq), p[go], residual[go], x[go]
        starts, scale, prev = starts[go], scale[go], move[go]
        # d T / d x - I, row v*q + s: -lam ln2 p_vs (J_vs - sum_t p_vt J_vt)
        mean = np.add.accumulate(p[..., None] * jac, axis=2)[:, :, -1:]
        a = ((scale * math.log(2.0))[:, None, None, None] * p[..., None]
             * (jac - mean)).reshape(-1, nq, nq)
        a[:, np.arange(nq), np.arange(nq)] -= 1.0
        if not bordered:
            x = x + _solve_stack(a, residual[:, :, None])[:, :, 0]
            continue
        lin = lin[go]
        tilt = lin - np.add.accumulate(p * lin, axis=2)[:, :, -1:]
        border = np.zeros((len(x), nq + 1, nq + 1))
        border[:, :nq, :nq] = a
        border[:, :nq, nq] = -math.log(2.0) * (p * tilt).reshape(-1, nq)
        border[:, nq, :nq] = lin.reshape(-1, nq)
        rhs = np.concatenate([residual, -excess[go, None]], axis=1)
        delta = _solve_stack(border, rhs[:, :, None])[:, :, 0]
        x, scale = x + delta[:, :nq], scale - delta[:, nq]
    return np.concatenate(failed)


def _lagrangian_fixed_point(model: _WindowModel, rows: np.ndarray,
                            coeffs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The fixed point of the softmax site updates at fixed shared
    multipliers, on a stack of starts: `rows` (S, n, q) is updated in place
    and returned, and `lam` holds one multiplier per start.

    Gauss-Seidel sweeps (`_sweeps`) run until a start's largest site move
    falls below `_SWEEP_STOP`; such a start finishes exactly as plain
    sweeps would.  A start whose move first falls below `_NEWTON_SWITCH` is
    finished by Newton steps (`_newton_finish`), which converge
    quadratically where the sweeps converge linearly.  Its rows are then a
    local maximum whose simultaneous update moves no entry by
    `_SWEEP_STOP`, and they can differ in the last bits from where plain
    sweeps would have stopped: those stop once a sweep moves less than
    `_SWEEP_STOP`, which where they crawl can leave them about 1e-12 short
    of the fixed point.  A start that fails the Newton phase resumes the
    sweeps from the rows it had at the switch, with its remaining budget,
    so its rows are bit for bit those of plain sweeps.  The window has two
    cells or more (`hind_fixed_n` solves one-cell caps in closed form)."""
    gathers = [lin for lin, _ in model.site_gathers(coeffs)]
    made = np.zeros(len(rows), dtype=np.intp)
    _sweeps(model, gathers, rows, lam, np.arange(len(rows)), _FIXED_POINT_SWEEPS,
            _NEWTON_SWITCH, made)
    handed = np.flatnonzero(made)
    if handed.size:
        failed = _newton_finish(model, rows, coeffs, lam, handed)
        for m in sorted(set(made[failed].tolist())):
            _sweeps(model, gathers, rows, lam, failed[made[failed] == m],
                    _FIXED_POINT_SWEEPS - m, _SWEEP_STOP, made)
    return rows


def _optimize_single_cap(model: _WindowModel, starts: np.ndarray,
                         coeffs: np.ndarray, bound_eff: float) -> np.ndarray:
    """Shared-multiplier ascent for a single mass-cap constraint that the
    uniform rows break, on a window of two cells or more, run on a stack
    of starts (S, n, q); returns one row set per start.

    Each start's multiplier is the root of g(lam) = c . averaged(rows_lam)
    - bound, rows_lam being the fixed point at lam; at lam = 0 that is the
    uniform rows, so g(0) > 0.  Doubling from lam = 1 brackets the root,
    each solve starting from the last one's rows.  Bordered Newton steps on
    (rows, lam) then start from the bracket's feasible end (`_newton_finish`
    with the bound): a start they finish stops at a fixed point and local
    maximum, its value no more than `_ROOT_ATOL` below the cap.  Every
    other start takes Illinois regula falsi steps (Dowell & Jarratt, BIT
    11, 1971) from its bracket, bisecting whenever the secant point leaves
    it, exactly as if it had taken no bordered step.  The rows on the
    feasible side are returned, or the (feasible) start itself when
    doubling finds no feasible side.  Every start keeps its own bracket,
    stopping tests and result; the starts only share the loops, each step
    taking the starts still searching.
    """
    value_at = lambda stack: _cap_values(model, coeffs, stack)
    solve = lambda stack, lam: _lagrangian_fixed_point(model, stack, coeffs, lam)
    uniform = np.full((1, model.side, model.q), 1.0 / model.q)
    lo, hi = np.zeros(len(starts)), np.ones(len(starts))
    g_lo = np.repeat(value_at(uniform) - bound_eff, len(starts))
    rows_hi = solve(starts.copy(), hi)
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
    best_feasible[g_hi > 0] = starts[g_hi > 0]
    moved = np.zeros(len(starts), dtype=np.int8)  # +1 after hi moved, -1 after lo
    # bordered Newton steps from the feasible side, for the starts not yet
    # close below the cap (no bracket is narrow yet): a start they finish
    # stops with its rows and multiplier, the others keep their brackets
    searching = np.zeros(len(starts), dtype=bool)
    at = np.flatnonzero(residual > _ROOT_ATOL)
    searching[_newton_finish(model, best_feasible, coeffs, hi, at, bound_eff)] = True
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
    return best_feasible


def hind_fixed_n(gamma: ConstraintSet, side: int, eps: float = 0.0, *,
                 restarts: int = 20, seed: int = 0) -> HindResult:
    """Best entropy rate of a length-`side` cyclic product measure whose
    averaged window distribution lies within TV distance eps of Γ.

    A uniform measure that meets the relaxed rows, and for a one-cell cap
    the i.i.d. closed form, are returned as they are, as one start each.
    Otherwise returns the best local optimum over `restarts` random starts
    plus the i.i.d. and period-2 warm starts, or the best screened start
    where that is better.  The optimisers read a row c . mu == b as c . mu
    <= b, plus -c . mu <= -b when c can fall below b, and relax each row
    c . mu <= b to c . mu <= b + eps * reach, reach being max c - min c
    (`_ball_reach`): the most c . mu can rise within TV distance eps of the
    row.  Every point of the eps-ball around Γ meets these rows; points
    that meet them but lie outside the ball are dropped by the distance
    check.  The result's `feasible` flag is an LP certificate (distance of
    the averaged marginal re-checked exactly); only a certified result is a
    valid lower bound.
    """
    eps = _checked_eps(eps)
    restarts, seed = _whole(restarts, "restarts"), _whole(seed, "seed")
    if restarts < 0 or seed < 0:
        raise ValidationError("restarts and seed must be >= 0")
    model = _WindowModel(gamma, side)
    n, q = side, model.q
    cap = gamma.cap
    if cap is not None:
        coeff_list, bounds_eff = [cap[0]], [cap[1] + eps]
    else:
        rows = []
        for c, b, e in zip(gamma.coeffs, gamma.bounds, gamma.equal):
            rows.append((c, b))
            if e and c.min() < b:   # c == b is also -c <= -b where c can fall below b
                rows.append((-c, -b))
        coeff_list = [c for c, _ in rows]
        bounds_eff = [b + eps * _ball_reach(c, False) for c, b in rows]

    def feasible_law(avg) -> bool:
        if cap is not None:
            return float(cap[0] @ avg) <= bounds_eff[0] + _FEAS_SLACK
        if eps == 0.0:
            # distance zero means every row holds: no LP needed
            return _meets_rows(gamma, avg, _FEAS_SLACK)
        mu = PatternDistribution(gamma.alphabet, gamma.shape, avg)
        return tv_distance_to_set(mu, gamma) <= eps + _FEAS_SLACK

    def screen(stack) -> np.ndarray:
        """Which row sets of a stack (S, n, q) meet the relaxed rows."""
        return np.array([feasible_law(avg) for avg in _window_law(stack, model.table)],
                        dtype=bool)

    def certified(stack, runs: int) -> HindResult:
        """The first row set of a stack with the highest entropy among those
        that meet the relaxed rows, and its LP certificate."""
        best_rows, best_val = None, -math.inf
        vals = _entropy_sums(stack) / n
        for rows, avg, val in zip(stack, _window_law(stack, model.table), vals):
            if val > best_val and feasible_law(avg):
                best_val, best_rows = float(val), rows
        if best_rows is None:
            return HindResult(-math.inf, None, side, eps, False, math.inf, runs)
        measure = SiteProductMeasure(gamma.alphabet, 1, side, best_rows)
        distance = tv_distance_to_set(averaged_marginal(measure, gamma.shape), gamma)
        return HindResult(best_val, measure, side, eps, distance <= eps + _CERT_TOL,
                          distance, runs)

    uniform = np.full((1, n, q), 1.0 / q)
    if screen(uniform)[0]:
        return certified(uniform, 1)
    if cap is not None and model.k == 1:
        # the cap reads only the sites' mean law, and entropy is concave:
        # the optimum is i.i.d., the relaxed cap's mass spread evenly over
        # the capped symbols and the rest evenly over the others
        capped = cap[0] > 0.0
        law = np.where(capped, bounds_eff[0] / capped.sum(),
                       (1.0 - bounds_eff[0]) / (~capped).sum())
        return certified(np.tile(law, (1, n, 1)), 1)

    # deterministic anchor: point mass on an admissible word
    w0 = find_admissible_word(side, gamma, eps)
    # the random starts in one draw, the stream of `restarts` draws of n
    # rows; only a draw needs the generator, and with it numpy.random
    rand = (np.random.default_rng(seed).dirichlet(np.ones(q), size=(restarts, n))
            if restarts else np.zeros((0, n, q)))
    if w0 is None:
        starts = rand[screen(rand)]
    else:
        # move the anchor toward each target (every site, the even sites,
        # every site of each random start), halving each start's mixing
        # weight until it passes the screen; the anchor is the fallback
        anchor = np.zeros((n, q))
        anchor[np.arange(n), w0.cells] = 1.0
        targets = np.concatenate([uniform, uniform, rand])
        sites = np.ones(targets.shape[:2] + (1,), dtype=bool)
        sites[1, 1::2] = False
        starts = np.repeat(anchor[None], len(targets), axis=0)
        pending, t = np.arange(len(targets)), 1.0
        for _ in range(40):
            rows = np.where(sites[pending], (1.0 - t) * anchor + t * targets[pending], anchor)
            ok = screen(rows)
            starts[pending[ok]] = rows[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            t *= 0.5

    if not len(starts):
        return HindResult(-math.inf, None, side, eps, False, math.inf, 0)

    stack = starts.copy()
    if cap is not None and bounds_eff[0] > _FEAS_SLACK:
        # single positive cap: the shared-multiplier ascent, then the polish
        stack = _optimize_single_cap(model, stack, cap[0], bounds_eff[0])
    stack = _sweep_hard(model, stack, bounds_eff, coeff_list)
    # the screened starts stay candidates, after the optimised rows so that
    # those win ties: a polish can leave every start outside the eps-ball
    return certified(np.concatenate([stack, starts]), len(starts))


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
    if not 0 <= p <= 1:  # also rejects NaN
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
    dim = _whole(dim, "dimension")
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    n = mu.side
    rows = mu.site_dists[np.indices((n,) * dim).sum(axis=0).reshape(-1) % n]
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
    side = _whole(side, "side")
    if side < 1:
        raise ValidationError("side must be >= 1")
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

class UncertifiedError(ValidationError):
    """No product measure on the requested grid passed its feasibility
    certificate: the optimiser failed, not the input."""


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


def hind_bound_report(gamma: ConstraintSet, dim: int,
                      eps_list: Sequence[float] = (0.0, 1e-3, 1e-2),
                      sides: Sequence[int] = (2, 3, 4, 5, 6), *,
                      restarts: int = 20, seed: int = 0) -> IndependenceReport:
    """Run the fixed-n optimiser over a grid of (eps, side), lift the best
    certified measure to `dim` dimensions, and assemble the lower bound."""
    dim = _whole(dim, "dimension")
    eps_list = tuple(float(e) for e in eps_list)
    if not eps_list:
        raise ValidationError("eps_list must not be empty")
    sides = tuple(n for n in (_whole(n, "side") for n in sides) if n >= len(gamma.shape))
    if not sides:
        raise ValidationError("every requested side is shorter than the window")
    rows = []
    for eps in eps_list:
        for n in sides:
            rows.append(hind_fixed_n(gamma, n, eps, restarts=restarts, seed=seed))
    certified = [r for r in rows if r.eps == min(eps_list) and r.feasible]
    if not certified:
        raise UncertifiedError(f"no certified product measure found at eps = "
                               f"{min(eps_list):g} on sides {list(sides)}")
    # sides whose values differ in the last bits tie, and the smallest
    # wins: which of them rounds highest is no property of the system
    top = max(r.value for r in certified)
    best = min((r for r in certified if r.value >= top - 4 * math.ulp(top)),
               key=lambda r: r.side)
    lift = axial_lift(best.measure, dim)
    lift_rate = product_entropy(lift) / (best.side ** dim)
    curve_ref = None
    cap = gamma.cap
    if cap is not None and gamma.alphabet.size == 2 and cap[0].tolist() == [0, 0, 0, 1]:
        curve_ref = curve_optimum_01p(cap[1]).value
    return IndependenceReport(
        dim, eps_list, sides, tuple(rows), best, lift, lift_rate,
        abs(lift_rate - best.value), curve_ref,
    )
