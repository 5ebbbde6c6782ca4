"""Independence-entropy lower bounds: product measures, the window-2 cap
curve, the fixed-n optimiser, axial lifts, and multi-choice counting."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from semicap.lattice_core import (
    Alphabet,
    PatternDistribution,
    Shape,
    SiteProductMeasure,
    ValidationError,
    product_entropy,
)
from semicap.capacity import capacity_1d, pressure_dual, transfer_matrix_capacity
from semicap.scs_model import (
    ConstraintSet,
    LinearConstraint,
    find_admissible_word,
    fully_constrained,
    rll_constraint,
    tv_distance_to_set,
)
from semicap.indentropy import (
    MultiChoiceWord,
    PeriodicProductMeasure,
    axial_lift,
    curve_optimum_01p,
    fillings_count,
    hind_bound_report,
    hind_com_fixed_n,
    hind_fixed_n,
)
from semicap import indentropy
from semicap.indentropy import _WindowModel
from semicap.lattice_core import _entropy_vec, _window_law, pattern_from_index

BIN = Alphabet.binary()


def h2(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


# ---------------------------------------------------------------------------
# The window-2 all-ones-cap curve
# ---------------------------------------------------------------------------

def test_curve_saturated_region():
    # above p = 1/4 the cap is slack and the fair coin wins
    for p in (0.25, 0.3, 0.7, 1.0):
        pt = curve_optimum_01p(p)
        assert pt.value == pytest.approx(1.0)
        assert pt.x == pytest.approx(0.5)
        assert pt.y == pytest.approx(0.5)


def test_curve_symmetric_branch():
    # at p = 0.2 the optimum is still the symmetric point x = y = sqrt(p)
    pt = curve_optimum_01p(0.2)
    r = math.sqrt(0.2)
    assert pt.x == pytest.approx(r, abs=1e-6)
    assert pt.y == pytest.approx(r, abs=1e-6)
    assert pt.value == pytest.approx(h2(r), abs=1e-9)


def test_curve_asymmetric_branch():
    # small p: the symmetric point is beaten by a lopsided pair
    pt = curve_optimum_01p(0.01)
    assert pt.value == pytest.approx(0.5732789616, abs=1e-8)
    assert pt.x == pytest.approx(0.454146, abs=2e-3)
    assert pt.y == pytest.approx(0.022019, abs=2e-3)
    assert pt.value > h2(math.sqrt(0.01))  # strictly better than symmetric
    # as p -> 0 the value approaches the hard limit 1/2 from above
    tiny = curve_optimum_01p(1e-6)
    assert 0.499 <= tiny.value <= 0.502


def test_curve_hard_constraint():
    pt = curve_optimum_01p(0.0)
    assert pt.value == pytest.approx(0.5)
    assert pt.y == 0.0


def test_curve_matches_grid_search():
    # dense 2-D grid over the feasible rectangle as an independent check
    for p in (0.005, 0.02, 0.08, 0.15):
        xs = np.linspace(1e-4, 1 - 1e-4, 1200)
        best = 0.0
        for x in xs:
            y = min(x, p / x)
            if y <= 0:
                continue
            best = max(best, (h2(x) + h2(y)) / 2)
        assert curve_optimum_01p(p).value == pytest.approx(best, abs=1e-5)


def test_curve_monotone_in_p():
    vals = [curve_optimum_01p(p).value for p in np.linspace(0.0, 0.3, 40)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_curve_rejects_bad_p():
    with pytest.raises(ValidationError):
        curve_optimum_01p(-0.1)
    with pytest.raises(ValidationError):
        curve_optimum_01p(1.5)
    with pytest.raises(ValidationError):
        curve_optimum_01p(math.nan)


# ---------------------------------------------------------------------------
# Periodic product measures
# ---------------------------------------------------------------------------

def test_periodic_measure_basics():
    mu = PeriodicProductMeasure(BIN, 2, np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert product_entropy(mu.tile(mu.period)) / mu.period == pytest.approx(0.5)
    tiled = mu.tile(6)
    assert tiled.side == 6
    assert np.allclose(tiled.site_dists[4], [0.5, 0.5])
    assert np.allclose(tiled.site_dists[5], [1.0, 0.0])
    # entropy per cell of the tiling equals the per-period rate
    assert product_entropy(tiled) / 6 == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        mu.tile(5)  # not a multiple of the period


def test_periodic_measure_iid():
    mu = PeriodicProductMeasure.iid(BIN, [0.25, 0.75])
    assert mu.period == 1
    assert product_entropy(mu.tile(mu.period)) / mu.period == pytest.approx(h2(0.25))
    assert mu.tile(3).site_dists.shape == (3, 2)


def test_periodic_measure_validation():
    # too few rows, a negative entry, a row not summing to 1
    for rows in ([[0.5, 0.5]], [[1.5, -0.5], [0.3, 0.3]], [[0.5, 0.5], [0.3, 0.3]]):
        with pytest.raises(ValidationError):
            PeriodicProductMeasure(BIN, 2, np.array(rows))


# ---------------------------------------------------------------------------
# Fixed-n optimisation
# ---------------------------------------------------------------------------

def test_hind_window2_matches_curve():
    # on two sites the optimiser must recover the closed-form curve value
    for p in (0.01, 0.05, 0.1, 0.2):
        gamma = rll_constraint(1, p)
        res = hind_fixed_n(gamma, 2, restarts=10, seed=0)
        assert res.feasible
        assert res.value == pytest.approx(curve_optimum_01p(p).value, abs=1e-4)


def test_hind_soft_cap_three_sites():
    gamma = rll_constraint(2, 0.05)
    res = hind_fixed_n(gamma, 3, restarts=20, seed=0)
    assert res.feasible
    assert res.distance <= 1e-8
    assert res.value >= 0.9490
    assert res.value <= capacity_1d(gamma).value + 1e-9
    # the optimum is symmetric across sites here
    rows = res.measure.site_dists
    assert np.allclose(rows, rows[0], atol=1e-4)


def test_hind_hard_constraint_alternating():
    # no adjacent ones, hard: best 4-cycle product measure alternates
    # free sites with forced zeros and yields exactly half a bit per cell
    gamma = rll_constraint(1, 0.0)
    res = hind_fixed_n(gamma, 4, restarts=20, seed=0)
    assert res.feasible
    assert res.value == pytest.approx(0.5, abs=1e-9)
    rows = res.measure.site_dists
    free = [i for i in range(4) if rows[i, 1] > 1e-6]
    forced = [i for i in range(4) if rows[i, 0] > 1 - 1e-9]
    assert sorted(free + forced) == [0, 1, 2, 3]
    assert len(free) == 2 and abs(free[0] - free[1]) == 2


def test_hind_monotone_in_eps():
    gamma = rll_constraint(2, 0.05)
    vals = [hind_fixed_n(gamma, 3, eps, restarts=8, seed=0).value
            for eps in (0.0, 1e-3, 1e-2)]
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9
    # the relaxation is actually used: the ball boundary is reached
    relaxed = hind_fixed_n(gamma, 3, 1e-2, restarts=8, seed=0)
    assert relaxed.distance == pytest.approx(1e-2, abs=1e-6)


def test_hind_free_simplex():
    # a constraint set that forbids nothing: uniform wins, one bit per cell
    gamma = ConstraintSet(BIN, Shape.segment(2), (
        LinearConstraint(np.array([1.0, 0.0, 0.0, 0.0]), 1.0),))
    res = hind_fixed_n(gamma, 2, restarts=4, seed=0)
    assert res.value == pytest.approx(1.0)
    assert np.allclose(res.measure.site_dists, 0.25 * 4 * 0.5)


def test_hind_respects_capacity_bound():
    for gamma, side in ((rll_constraint(1, 0.1), 3),
                        (rll_constraint(2, 0.0), 4)):
        res = hind_fixed_n(gamma, side, restarts=10, seed=0)
        assert res.feasible
        assert res.value <= capacity_1d(gamma).value + 1e-9


def test_hind_rejects_short_side():
    with pytest.raises(ValidationError):
        hind_fixed_n(rll_constraint(2, 0.05), 2)


def _system(*rows, sense="<="):
    return ConstraintSet(BIN, Shape.segment(2), tuple(
        LinearConstraint(np.array(c, dtype=float), b, sense) for c, b in rows))


def test_hind_relaxation_ignores_how_rows_are_written():
    # five ways to write mu(11) <= 0.1: all are the one cap, and each row's
    # eps-ball relaxation scales with its reach, so the problems coincide
    forms = [_system(([0, 0, 0, 0.5], 0.05)),
             _system(([0, 0, 0, 2], 0.2)),
             _system(([1, 1, 1, 2], 1.1)),
             _system(([0, 0, 0, 1], 0.1), ([1, 0, 0, 0], 1.0)),
             rll_constraint(1, 0.1)]
    for eps in (0.0, 0.01):
        for n in range(2, 6):
            results = [hind_fixed_n(g, n, eps, restarts=4, seed=1) for g in forms]
            assert all(r.feasible for r in results), (eps, n)
            values = [r.value for r in results]
            assert max(values) - min(values) <= 1e-12, (eps, n, values)


def test_hind_forbidding_rows_ignore_how_they_are_written():
    # mu(11) = 0 written with a weight, a shift or an equality sense
    forms = [_system(([0, 0, 0, 2], 0.0)),
             _system(([1, 1, 1, 2], 1.0), sense="=="),
             _system(([3, 3, 3, 5], 3.0))]
    for eps in (0.0, 0.01):
        for n in (2, 3, 4):
            ref = hind_fixed_n(rll_constraint(1, 0.0), n, eps, restarts=4, seed=1)
            for g in forms:
                res = hind_fixed_n(g, n, eps, restarts=4, seed=1)
                assert res.feasible and res.value == ref.value, (eps, n)


# mu(11) - mu(00) == 0 and mu(11) <= 0.1, with the signed `==` row written
# as it is and as two `<=` rows
_BALANCE = np.array([-1.0, 0.0, 0.0, 1.0])
_BALANCE_EQ = ConstraintSet(BIN, Shape.segment(2), (
    LinearConstraint(_BALANCE, 0.0, "=="), LinearConstraint(np.eye(4)[3], 0.1)))
_BALANCE_LE = _system((_BALANCE, 0.0), (-_BALANCE, 0.0), (np.eye(4)[3], 0.1))


def test_hind_signed_equality_row_reads_as_two_rows():
    # a signed `==` row binds from below too; read as `<=` alone it let the
    # polish leave Γ, and every start was dropped
    for eps in (0.0, 0.01):
        for n in (2, 3, 4):
            eq, le = (hind_fixed_n(g, n, eps, restarts=4, seed=1)
                      for g in (_BALANCE_EQ, _BALANCE_LE))
            assert eq.feasible == le.feasible, (eps, n)
            assert eq.value == pytest.approx(le.value, abs=1e-12), (eps, n)
    res = hind_fixed_n(_BALANCE_EQ, 2, restarts=4, seed=1)
    assert res.feasible and res.value == pytest.approx(0.33729006661701, abs=1e-12)


def test_hind_keeps_screened_starts_the_polish_moves_out_of_the_ball():
    # at eps = 0.01 every screened start lies in the ball, and the polish
    # takes each one to TV distance 0.04 from Γ: the best screened start is
    # the result, not -inf
    for n in (2, 4):
        res = hind_fixed_n(_BALANCE_LE, n, 0.01, restarts=4, seed=1)
        assert res.feasible and math.isfinite(res.value), n


def test_hind_empty_system_is_one_bit():
    # no row binds: the unconstrained optimum, with no polish to run
    res = hind_fixed_n(ConstraintSet(BIN, Shape.segment(2), ()), 3, restarts=2)
    assert res.feasible and res.value == 1.0


def _no_word_search(monkeypatch):
    """Count the calls of `find_admissible_word` that `hind_fixed_n` makes."""
    calls = []
    find = indentropy.find_admissible_word
    monkeypatch.setattr(indentropy, "find_admissible_word",
                        lambda *args: calls.append(args) or find(*args))
    return calls


def test_hind_uniform_optimum_is_returned_as_is(monkeypatch):
    # a uniform measure that meets the rows maximises every site's entropy:
    # it is the result, one start, with no word search and no optimiser
    calls = _no_word_search(monkeypatch)
    free = ConstraintSet(BIN, Shape.segment(2), (
        LinearConstraint(np.array([1.0, 0.0, 0.0, 0.0]), 1.0),))
    tri = np.zeros(9)
    tri[[4, 8]] = 1.0   # mu(11) + mu(22) <= 0.3, above the uniform 2/9
    tri_cap = ConstraintSet(_TRI, Shape.segment(2), (LinearConstraint(tri, 0.3),))
    for gamma, side in ((rll_constraint(3, 0.1), 4), (free, 2), (free, 3),
                        (rll_constraint(1, 0.3), 3), (tri_cap, 3)):
        q = gamma.alphabet.size
        for eps in (0.0, 0.01):
            res = hind_fixed_n(gamma, side, eps, restarts=4, seed=1)
            assert res.feasible and res.restarts == 1 and res.distance == 0.0, (q, side)
            assert np.array_equal(res.measure.site_dists, np.full((side, q), 1.0 / q))
            assert abs(res.value - math.log2(q)) <= 1e-15, (q, side, eps)
    assert not calls


def test_hind_one_cell_cap_is_the_iid_closed_form(monkeypatch):
    # a one-cell cap reads only the sites' mean law, so by concavity the
    # optimum is i.i.d.: the relaxed cap's mass spread evenly over the
    # capped symbols, the rest evenly over the others
    calls = _no_word_search(monkeypatch)
    caps = [(rll_constraint(0, p), [1]) for p in (0.0, 0.1, 0.3)]
    for capped, bound in (([2], 0.2), ([1, 2], 0.3)):
        c = np.zeros(3)
        c[capped] = 1.0
        caps.append((ConstraintSet(_TRI, Shape.segment(1), (LinearConstraint(c, bound),)),
                     capped))
    for gamma, capped in caps:
        q, m = gamma.alphabet.size, len(capped)
        for eps in (0.0, 0.01):
            b = gamma.cap[1] + eps
            want = -(1.0 - b) * math.log2((1.0 - b) / (q - m))
            if b:
                want -= b * math.log2(b / m)
            law = [b / m if s in capped else (1.0 - b) / (q - m) for s in range(q)]
            for side in range(1, 6):
                res = hind_fixed_n(gamma, side, eps, restarts=3, seed=0)
                assert res.feasible and res.restarts == 1, (q, capped, eps, side)
                assert abs(res.value - want) <= 1e-15, (q, capped, eps, side)
                assert np.allclose(res.measure.site_dists, law, rtol=0.0, atol=1e-15)
    assert not calls


@pytest.mark.parametrize("eps", [0.001, 0.01, 0.05])
def test_hind_ascent_keeps_feasible_starts(eps):
    # forbidding 00 and 11 leaves the alternating words; the symmetric fixed
    # point never meets the relaxed cap, so the screened start must survive
    # the multiplier search.  Two `<=` zero rows are the same system.
    equal = fully_constrained(BIN, Shape.segment(2), [(1, 1), (0, 0)])
    below = _system(([0, 0, 0, 1], 0.0), ([1, 0, 0, 0], 0.0))
    for n in (4, 6):
        results = [hind_fixed_n(g, n, eps, restarts=6, seed=1) for g in (equal, below)]
        assert all(r.feasible and r.value > 0.0 for r in results), n
        assert results[0].value == results[1].value


def test_hind_window2_matches_curve_to_nine_digits():
    # the shared-multiplier root search must land on the curve optimum itself
    for p in (0.01, 0.03, 0.05, 0.1, 0.15, 0.2, 0.24):
        res = hind_fixed_n(rll_constraint(1, p), 2, restarts=10, seed=0)
        assert abs(res.value - curve_optimum_01p(p).value) <= 1e-9, p


def test_hind_single_cap_solves_per_start(monkeypatch):
    # the multiplier search makes 4 fixed-point solves per start here, at
    # lam = 1, 2, 4 and 8, after which bordered Newton steps on (rows, lam),
    # which are no solve, finish every start (the fixed point at lam = 0 is
    # the uniform rows, which takes no solve).  Illinois steps from the
    # bracket took 12, and bisecting to double precision takes about 85.
    # The starts share each batched solve, so a call counts its live starts.
    calls = 0
    solve = indentropy._lagrangian_fixed_point

    def counted(model, rows, coeffs, lam):
        nonlocal calls
        calls += len(rows)
        return solve(model, rows, coeffs, lam)

    monkeypatch.setattr(indentropy, "_lagrangian_fixed_point", counted)
    res = hind_fixed_n(rll_constraint(2, 0.05), 3, restarts=20, seed=0)
    assert res.feasible and res.restarts == 22
    assert calls <= 5 * res.restarts


_TRI = Alphabet.of_size(3)
_CAP_CASES = (  # (alphabet, window, side, capped patterns, cap)
    (BIN, 2, 4, [3], 0.1),
    (BIN, 3, 4, [7], 0.11),
    (BIN, 3, 5, [7], 0.11),
    (BIN, 3, 4, [3, 6], 0.05),
    (_TRI, 2, 3, [8], 0.03),
    (_TRI, 3, 3, [13, 26], 0.01),
    (BIN, 2, 2, [0, 3], 0.01),   # starts take both root-search paths
    (BIN, 2, 2, [0, 3], 0.2),    # a bordered step takes lam so far below 0
                                 # that exp2 would overflow
)


def _cap_cases():
    """Each single-cap case of `_CAP_CASES` with its model, coefficient row
    and five seeded random starts."""
    rng = np.random.default_rng(30)
    for case in _CAP_CASES:
        alphabet, k, side, capped, bound = case
        coeffs = np.zeros(alphabet.size ** k)
        coeffs[capped] = 1.0
        model = _WindowModel(ConstraintSet(alphabet, Shape.segment(k), (
            LinearConstraint(coeffs, bound),)), side)
        yield case, model, coeffs, rng.dirichlet(np.ones(alphabet.size), size=(5, side))


def test_hind_batch_matches_single_starts(monkeypatch):
    # the batched ascent runs every start as a stack of one would: the same
    # rows, and the same fixed-point solves (inputs and number) per start.
    # At the window-2 cap mu(00) + mu(11) <= 0.01 on two sites, one start's
    # doubling stops at lam = 8 and bordered Newton steps finish it, while
    # four go on to lam = 16, where the bordered steps fail, and fall back
    # to Illinois steps: the stack's live set shrinks unevenly, and across
    # both paths
    solves, bordered = [], []
    solve, newton = indentropy._lagrangian_fixed_point, indentropy._newton_finish

    def recorded(model, rows, coeffs, lam):
        solves.extend(zip(rows.copy(), lam.copy()))
        return solve(model, rows, coeffs, lam)

    def finish(model, rows, coeffs, lam, starts, bound=None):
        failed = newton(model, rows, coeffs, lam, starts, bound)
        if bound is not None:
            bordered.append(0 < len(failed) < len(starts))
        return failed

    monkeypatch.setattr(indentropy, "_lagrangian_fixed_point", recorded)
    monkeypatch.setattr(indentropy, "_newton_finish", finish)
    uneven = {}
    for (alphabet, k, side, capped, bound), model, coeffs, starts in _cap_cases():
        solves.clear()
        bordered.clear()
        batch = indentropy._optimize_single_cap(model, starts, coeffs, bound)
        split, unmatched, counts = any(bordered), list(solves), set()
        for i in range(len(starts)):
            solves.clear()
            alone = indentropy._optimize_single_cap(model, starts[i:i + 1], coeffs, bound)
            # only per-start arithmetic: equal exactly, not just to 1e-15
            assert np.array_equal(batch[i], alone[0]), (k, side, i)
            counts.add(len(solves))
            for rows, lam in solves:
                twin = next((j for j, (r, lm) in enumerate(unmatched)
                             if lm == lam and np.array_equal(r, rows)), None)
                assert twin is not None, (k, side, i, lam)
                del unmatched[twin]
        assert not unmatched, (k, side)
        uneven[k, side, bound] = split and len(counts) > 1
    assert uneven[2, 2, 0.01]


def _bordered_cases():
    """The single caps of `_cap_cases`, then the benchmark's three single
    caps (rll(2, .05) at n = 3, rll(1, .1) at n = 2, and at n = 4 with eps
    .01), each with five seeded random starts: the model, coefficient row,
    effective cap and starts."""
    for case, model, coeffs, starts in _cap_cases():
        yield model, coeffs, case[4], starts
    rng = np.random.default_rng(30)
    for gamma, side, eps in ((rll_constraint(2, 0.05), 3, 0.0),
                             (rll_constraint(1, 0.1), 2, 0.0),
                             (rll_constraint(1, 0.1), 4, 0.01)):
        coeffs, bound = gamma.cap
        yield (_WindowModel(gamma, side), coeffs, bound + eps,
               rng.dirichlet(np.ones(2), size=(5, side)))


def test_bordered_finish_ends_at_a_capped_fixed_point(monkeypatch):
    # each start that bordered Newton steps finish is a fixed point at the
    # multiplier they found (one reference sweep moves no entry by more
    # than 1e-12), a local maximum of its Lagrangian there, and meets the
    # cap; the ascent returns its rows
    finished = []
    newton = indentropy._newton_finish

    def recorded(model, rows, coeffs, lam, starts, bound=None):
        failed = newton(model, rows, coeffs, lam, starts, bound)
        if bound is not None:
            done = np.setdiff1d(starts, failed)
            finished.append((rows[done].copy(), lam[done].copy()))
        return failed

    monkeypatch.setattr(indentropy, "_newton_finish", recorded)
    total = 0
    for model, coeffs, bound, starts in _bordered_cases():
        finished.clear()
        result = indentropy._optimize_single_cap(model, starts, coeffs, bound)
        for rows, lam in finished:
            if not len(rows):
                continue
            once, _ = _fixed_point_per_site(model, rows.copy(), coeffs, lam, sweeps=1)
            assert np.abs(once - rows).max() <= 1e-12, (model.k, bound)
            flat = rows.reshape(len(rows), -1)
            jac = model.jacobian(flat, model.site_pairs(coeffs))
            assert indentropy._local_max(jac, flat, -lam, model.side, model.q).all()
            for r in rows:
                assert coeffs @ _window_law(r[None], model.table)[0] <= bound
                assert any(np.array_equal(r, got) for got in result)
            total += len(rows)
    assert total >= 30


def _bracket_search(model, starts, coeffs, bound_eff):
    """Reference root search: the doubling, then Illinois steps from every
    start's bracket, as `_optimize_single_cap` takes them for a start that
    bordered Newton steps do not finish."""
    value_at = lambda stack: (coeffs @ _window_law(stack, model.table)[:, :, None])[:, 0]
    solve = lambda stack, lam: indentropy._lagrangian_fixed_point(model, stack, coeffs, lam)
    lo, hi = np.zeros(len(starts)), np.ones(len(starts))
    # the fixed point at lam = 0 is the uniform rows
    g_lo = value_at(np.full(starts.shape, 1.0 / model.q)) - bound_eff
    rows_hi = solve(starts.copy(), hi)
    g_hi = value_at(rows_hi) - bound_eff
    for _ in range(60):
        up = np.flatnonzero(g_hi > 0)
        if not up.size:
            break
        lo[up], g_lo[up], hi[up] = hi[up], g_hi[up], hi[up] * 2.0
        rows_hi[up] = solve(rows_hi[up], hi[up])
        g_hi[up] = value_at(rows_hi[up]) - bound_eff
    best_feasible, residual = rows_hi, -g_hi
    best_feasible[g_hi > 0] = starts[g_hi > 0]
    moved = np.zeros(len(starts), dtype=np.int8)
    searching = np.ones(len(starts), dtype=bool)
    for _ in range(indentropy._ROOT_ITER):
        searching &= ~((hi - lo <= indentropy._ROOT_RTOL * hi)
                       | (residual <= indentropy._ROOT_ATOL))
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
        g_hi[up[moved[up] < 0]] *= 0.5
        moved[up] = -1
        hi[down], g_hi[down] = lam[~above], g[~above]
        best_feasible[down], residual[down] = rows_lam[~above], -g[~above]
        g_lo[down[moved[down] > 0]] *= 0.5
        moved[down] = 1
    return best_feasible


def test_bordered_finish_falls_back_to_the_bracket_search(monkeypatch):
    # with every bordered solve NaN, each start leaves the bordered steps
    # after one step and takes Illinois steps from its bracket: the ascent
    # returns the reference search's rows bit for bit
    solve, bordered, failed = indentropy._solve_stack, [], []

    def no_border(a, b):
        if a.shape[-1] == bordered[-1]:
            failed.append(len(a))
            return np.full(b.shape, np.nan)
        return solve(a, b)

    monkeypatch.setattr(indentropy, "_solve_stack", no_border)
    for model, coeffs, bound, starts in _bordered_cases():
        bordered.append(model.side * model.q + 1)   # d T / d x - I has n*q rows
        got = indentropy._optimize_single_cap(model, starts, coeffs, bound)
        want = _bracket_search(model, starts, coeffs, bound)
        assert np.array_equal(got, want), (model.k, model.side, bound)
    assert sum(failed) >= 40


_TWO_ROWS = ConstraintSet(BIN, Shape.segment(2), (
    LinearConstraint(np.array([0.0, 0.5, 0.5, 1.0]), 0.4),
    LinearConstraint(np.array([0.0, 0.0, 0.0, 1.0]), 0.15)))


def test_hind_benchmark_values():
    # the four product-measure bounds a benchmark `bounds` round computes
    for gamma, side, eps, value in (
            (rll_constraint(2, 0.05), 3, 0.0, 0.9494380930666207),
            (rll_constraint(1, 0.1), 2, 0.0, 0.9002320226345673),
            (rll_constraint(1, 0.1), 4, 0.01, 0.9166159099453555),
            (_TWO_ROWS, 4, 0.0, 0.9539600076279061)):
        res = hind_fixed_n(gamma, side, eps)
        assert res.feasible and abs(res.value - value) <= 1e-15, (side, eps)


def test_hind_values_pinned():
    # values of the fixed-point solves and the per-start start building;
    # numpy picks its log and exp2 kernels by CPU, so a last bit may move
    # between machines (the reference-loop tests below check each solve on
    # one machine).  The q = 3 cap is a branch point: its sweeps at lam = 64
    # reach one of two local maxima depending on the last bits of the
    # lam = 32 fixed point they start from
    q3 = np.zeros(27)
    q3[[13, 26]] = 1.0   # mu(111) + mu(222) <= 0.01
    tri_cap = ConstraintSet(_TRI, Shape.segment(3), (LinearConstraint(q3, 0.01),))
    for gamma, side, eps, kwargs, value in (
            (tri_cap, 3, 0.0, dict(restarts=3, seed=1), 1.311365036050989),
            (rll_constraint(3, 0.05), 5, 0.0, {}, 0.9978753291681428),
            (rll_constraint(1, 0.1), 3, 0.0, dict(restarts=0), 0.9002320226345674),
            (rll_constraint(0, 0.3), 1, 0.0, dict(restarts=0), 0.8812908992306928),
            (_TWO_ROWS, 3, 0.01, {}, 0.9674811634775575),
            (rll_constraint(2, 0.01), 3, 0.0, {}, 0.7596403782861736)):
        res = hind_fixed_n(gamma, side, eps, **kwargs)
        assert res.feasible and abs(res.value - value) <= 1e-15, (side, eps, kwargs)


@pytest.mark.parametrize("kwargs", [dict(restarts=-1), dict(restarts=2.5),
                                    dict(seed=-1), dict(seed=0.5)])
def test_hind_rejects_bad_restarts_and_seed(kwargs):
    # each must be a whole number >= 0: no silent empty run, no raw
    # TypeError or numpy ValueError
    with pytest.raises(ValidationError):
        hind_fixed_n(rll_constraint(1, 0.1), 3, **kwargs)


def _starts_per_start(gamma, side, eps, restarts, seed):
    """Reference start building, start by start, for a system that is no
    one-cell cap and whose uniform rows fail the screen: with an anchor
    word each target mixed in alone (every site, the even sites, every
    site of each random start) with its weight halved until the screen
    passes, else each random start that passes; one `dirichlet(size=n)`
    draw per restart."""
    model = _WindowModel(gamma, side)
    n, q, cap = side, model.q, gamma.cap
    slack = indentropy._FEAS_SLACK

    def feasible(rows):
        avg = _window_law(rows, model.table)
        if cap is not None:
            return float(cap[0] @ avg) <= cap[1] + eps + slack
        if eps == 0.0:  # each row's own dot, as written
            dots = [(float(c.coeffs @ avg), c.bound, c.sense) for c in gamma.constraints]
            return all(abs(v - b) <= slack if s == "==" else v <= b + slack
                       for v, b, s in dots)
        mu = PatternDistribution(gamma.alphabet, gamma.shape, avg)
        return tv_distance_to_set(mu, gamma) <= eps + slack

    def mix(anchor, target, sites=range(n)):
        t = 1.0
        for _ in range(40):
            rows = anchor.copy()
            for v in sites:
                rows[v] = (1.0 - t) * anchor[v] + t * target[v]
            if feasible(rows):
                return rows
            t *= 0.5
        return anchor.copy()

    rng = np.random.default_rng(seed)
    uniform = np.full((n, q), 1.0 / q)
    assert not feasible(uniform)
    starts = []
    word = find_admissible_word(side, gamma, eps)
    if word is None:
        for _ in range(restarts):
            rand = rng.dirichlet(np.ones(q), size=n)
            if feasible(rand):
                starts.append(rand)
        return starts
    anchor = np.zeros((n, q))
    anchor[np.arange(n), word.cells] = 1.0
    starts += [mix(anchor, uniform), mix(anchor, uniform, range(0, n, 2))]
    starts += [mix(anchor, rng.dirichlet(np.ones(q), size=n)) for _ in range(restarts)]
    return starts


def test_hind_stacked_starts_match_per_start_loop(monkeypatch):
    # the starts reach the first optimiser as the per-start loop builds
    # them, bit for bit: a single cap, the two-row system at eps 0 (rows
    # checked directly) and 0.01 (the LP screen), and a row no word meets
    # at side 4, so no anchor: none pass at eps 0, some random ones at 0.01
    seen = []
    for name in ("_optimize_single_cap", "_sweep_hard"):
        def first(model, rows, *args, _run=getattr(indentropy, name)):
            seen.append(rows.copy())
            return _run(model, rows, *args)
        monkeypatch.setattr(indentropy, name, first)
    equal = ConstraintSet(BIN, Shape.segment(1), (
        LinearConstraint(np.array([0.0, 1.0]), 0.3, "=="),))
    passed = set()
    for gamma, side, eps in ((rll_constraint(2, 0.05), 4, 0.0), (_TWO_ROWS, 4, 0.0),
                             (_TWO_ROWS, 3, 0.01), (equal, 4, 0.0), (equal, 4, 0.01)):
        for restarts in (0, 1, 20):
            seen.clear()
            res = hind_fixed_n(gamma, side, eps, restarts=restarts, seed=0)
            want = _starts_per_start(gamma, side, eps, restarts, 0)
            assert res.restarts == len(want), (side, eps, restarts)
            if want:
                assert np.array_equal(seen[0], np.array(want)), (side, eps, restarts)
            else:
                assert not seen, (side, eps, restarts)
            passed.add((gamma is equal, eps, len(want) > 0))
    assert (True, 0.0, False) in passed and (True, 0.01, True) in passed


def test_dirichlet_stack_is_the_stream_of_single_draws():
    # one draw of (R, n) rows continues the generator exactly as R draws of n
    for q, restarts, side, seed in ((2, 20, 4, 0), (3, 7, 3, 5), (2, 1, 1, 2), (4, 5, 6, 9)):
        one = np.random.default_rng(seed).dirichlet(np.ones(q), size=(restarts, side))
        rng = np.random.default_rng(seed)
        each = [rng.dirichlet(np.ones(q), size=side) for _ in range(restarts)]
        assert np.array_equal(one, np.array(each)), (q, restarts, side)


def _fixed_point_per_site(model, rows, coeffs, lam,
                          sweeps=indentropy._FIXED_POINT_SWEEPS):
    """Reference fixed point: plain sweeps of the per-site loop, with each
    site's linear terms as one (S, pairs, cells) gather multiplied out along
    its cells, and each start's largest move taken site by site.  Returns
    the rows and, per start, whether it met `_SWEEP_STOP` (else it stopped
    after `sweeps` sweeps)."""
    gathers = []
    for (cols, weights), _ in model.site_gathers(coeffs):
        idx = np.array(cols, dtype=np.intp).reshape(len(cols), len(weights)).T
        gathers.append((idx, weights))

    def terms(flat, idx, weights):
        if not len(idx):
            return np.zeros((len(flat), weights.shape[1]))
        pairs = flat[:, idx].prod(axis=2)[:, :, None] * weights
        return np.add.accumulate(pairs, axis=1)[:, -1] / model.side

    live, met = np.arange(len(rows)), np.zeros(len(rows), dtype=bool)
    for _ in range(sweeps):
        sub = rows[live]
        flat = sub.reshape(len(live), -1)
        scale = -lam[live, None]
        delta = np.zeros(len(live))
        for v, (idx, weights) in enumerate(gathers):
            lin = terms(flat, idx, weights)
            w = np.exp2(scale * (lin - lin.min(axis=1, keepdims=True)))
            new = w / w.sum(axis=1, keepdims=True)
            np.maximum(delta, np.abs(new - sub[:, v]).max(axis=1), out=delta)
            sub[:, v] = new
        rows[live] = sub
        met[live[delta < indentropy._SWEEP_STOP]] = True
        live = live[~(delta < indentropy._SWEEP_STOP)]
        if not live.size:
            break
    return rows, met


def _checked_fixed_point(monkeypatch, near):
    """Wrap `_lagrangian_fixed_point` to check each solve, start by start,
    against the reference loop run on the same input: a start equals the
    reference's rows bit for bit or is a fixed point (one reference sweep
    moves no site by more than 1e-12), and, if `near`, where the reference
    met `_SWEEP_STOP` it lies within 1e-12 of the reference's rows.
    Returns a tally: solves, starts, starts that differ from the reference,
    and starts that stopped at the sweep budget in the reference and
    here."""
    solve = indentropy._lagrangian_fixed_point
    tally = dict(solves=0, starts=0, differ=0, budget_ref=0, budget=0)

    def checked(model, rows, coeffs, lam):
        want, met = _fixed_point_per_site(model, rows.copy(), coeffs, lam)
        got = solve(model, rows, coeffs, lam)
        once, _ = _fixed_point_per_site(model, got.copy(), coeffs, lam, sweeps=1)
        for i in range(len(got)):
            same = np.array_equal(got[i], want[i])
            assert same or np.abs(once[i] - got[i]).max() <= 1e-12, (model.k, lam[i])
            if near and met[i]:
                assert np.abs(got[i] - want[i]).max() <= 1e-12, (model.k, lam[i])
            tally["differ"] += not same
            tally["budget_ref"] += not met[i]
            tally["budget"] += same and not met[i]
        tally["solves"] += 1
        tally["starts"] += len(got)
        return got

    monkeypatch.setattr(indentropy, "_lagrangian_fixed_point", checked)
    return tally


def test_fixed_point_matches_per_site_loop(monkeypatch):
    # every fixed-point solve of the single-cap ascents finishes as the
    # per-site reference loop or at a fixed point near it; where the
    # reference stops at its budget the rows are its rows bit for bit
    tally = _checked_fixed_point(monkeypatch, near=True)
    for case, model, coeffs, starts in _cap_cases():
        indentropy._optimize_single_cap(model, starts, coeffs, case[4])
    assert tally["solves"] > 2 * len(_CAP_CASES)
    assert tally["differ"] > 0 and tally["budget"] == tally["budget_ref"]


def test_fixed_point_small_caps_finish_or_fall_back(monkeypatch):
    # at small caps the sweeps converge slowly and some reference solves
    # stop at their budget: each solve still ends at a fixed point or on the
    # reference's rows, and no more starts stop at the budget (where the
    # sweeps converge this slowly, their stop can lie 1.5e-12 from the
    # fixed point that Newton steps reach)
    tally = _checked_fixed_point(monkeypatch, near=False)
    for k in (1, 2):
        res = hind_fixed_n(rll_constraint(k, 0.01), 3, restarts=2, seed=5)
        assert res.feasible
    assert tally["budget_ref"] > 0 and tally["differ"] > 0
    assert tally["budget"] <= tally["budget_ref"]


def test_solve_stack_marks_singular_matrices():
    # a singular matrix in the stack makes its solution NaN (its start then
    # leaves the Newton phase) and leaves the others' solutions as alone
    a = np.array([[[2.0, 0.0], [0.0, 4.0]], [[1.0, 2.0], [2.0, 4.0]],
                  [[0.0, 1.0], [1.0, 0.0]]])
    b = np.array([[[2.0], [2.0]], [[1.0], [1.0]], [[3.0], [5.0]]])
    got = indentropy._solve_stack(a, b)
    assert np.isnan(got[1]).all()
    for i in (0, 2):
        assert np.array_equal(got[i], np.linalg.solve(a[i:i + 1], b[i:i + 1])[0])


def test_newton_finish_rejects_rows_off_the_open_simplex():
    # a start handed over with a zero entry fails at once, its rows
    # untouched, while a start inside the simplex finishes beside it
    gamma = rll_constraint(1, 0.1)
    model, coeffs = _WindowModel(gamma, 3), gamma.cap[0]
    rows = np.array([[[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]],
                     [[0.6, 0.4], [0.5, 0.5], [0.6, 0.4]]])
    before = rows.copy()
    failed = indentropy._newton_finish(model, rows, coeffs, np.ones(2), np.arange(2))
    assert failed.tolist() == [0] and np.array_equal(rows[0], before[0])
    assert not np.array_equal(rows[1], before[1])


def _site_coeffs(model, rows, v, coeffs):
    """Reference per-site affine form of one coefficient row, summed window
    by window then pattern by pattern: c . averaged(rows) = const + lin . p_v."""
    lin, const = np.zeros(model.q), 0.0
    for w in model.table.tolist():
        for i, c in enumerate(coeffs.tolist()):
            if not c:
                continue
            a = pattern_from_index(i, model.q, model.k)
            prod = 1.0
            for j, site in enumerate(w):
                if site != v:
                    prod *= rows[site][a[j]]
            if v in w:
                lin[a[w.index(v)]] += c * prod
            else:
                const += c * prod
    return lin / model.side, const / model.side


def test_site_gathers_match_site_coeffs():
    # the gathered terms of a stack are the reference loop's, bit for bit
    rng = np.random.default_rng(43)
    tri = Alphabet.of_size(3)
    for alphabet, k, side in ((BIN, 1, 3), (BIN, 2, 5), (BIN, 4, 6), (tri, 3, 4)):
        m = alphabet.size ** k
        coeffs = rng.random(m) * (rng.random(m) < 0.5)
        model = _WindowModel(ConstraintSet(alphabet, Shape.segment(k), (
            LinearConstraint(coeffs, 0.5),)), side)
        stack = rng.dirichlet(np.ones(alphabet.size), size=(4, side))
        flat = stack.reshape(4, -1)
        for v, (lin_gather, const_gather) in enumerate(model.site_gathers(coeffs)):
            lin = model.terms(flat, lin_gather)
            const = model.terms(flat, const_gather)
            for s, rows in enumerate(stack):
                ref_lin, ref_const = _site_coeffs(model, rows, v, coeffs)
                assert np.array_equal(lin[s], ref_lin), (k, side, v)
                assert const[s, 0] == ref_const, (k, side, v)


def test_site_coeffs_affine_identity():
    # each row's functional is affine in one site: const + lin . p_v must
    # equal c . averaged(rows) at every site, for every row and start
    rng = np.random.default_rng(41)
    tri = Alphabet.of_size(3)
    for alphabet, k, side in ((BIN, 2, 5), (tri, 3, 4)):
        m = alphabet.size ** k
        coeffs = rng.random((2, m))
        coeffs[0, rng.random(m) < 0.3] = 0.0   # sparse rows skip patterns
        gamma = ConstraintSet(alphabet, Shape.segment(k), tuple(
            LinearConstraint(c, 0.5) for c in coeffs))
        model = _WindowModel(gamma, side)
        stack = rng.dirichlet(np.ones(alphabet.size), size=(5, side))
        flat = stack.reshape(5, -1)
        for r in range(2):
            gathers = model.site_gathers(coeffs[r])
            for v, (lin_gather, const_gather) in enumerate(gathers):
                lin = model.terms(flat, lin_gather)
                const = model.terms(flat, const_gather)
                assert lin.shape == (5, alphabet.size) and const.shape == (5, 1)
                for s, rows in enumerate(stack):
                    target = coeffs[r] @ _window_law(rows, model.table)
                    assert abs(const[s, 0] + lin[s] @ rows[v] - target) <= 1e-15
                    # a start's terms do not depend on the stack around it
                    one = flat[s:s + 1]
                    assert np.array_equal(model.terms(one, lin_gather)[0], lin[s])
                    assert model.terms(one, const_gather)[0, 0] == const[s, 0]


def test_site_gathers_affine_form():
    # a row's functional c . averaged(rows) is affine in site v's row x:
    # f(x) = const + lin . x, so the gathered terms of a stack must equal
    # f(0) and f(e_s) - f(0), f read off the independent `_window_law`
    rng = np.random.default_rng(43)
    tri = Alphabet.of_size(3)
    for alphabet, k, side in ((BIN, 1, 3), (BIN, 2, 5), (BIN, 3, 5), (BIN, 4, 6),
                              (tri, 1, 2), (tri, 2, 4), (tri, 3, 4), (tri, 4, 5)):
        q, m = alphabet.size, alphabet.size ** k
        coeffs = rng.random(m) * (rng.random(m) < 0.5)
        model = _WindowModel(ConstraintSet(alphabet, Shape.segment(k), (
            LinearConstraint(coeffs, 0.5),)), side)
        stack = rng.dirichlet(np.ones(q), size=(4, side))
        flat = stack.reshape(4, -1)
        for v, (lin_gather, const_gather) in enumerate(model.site_gathers(coeffs)):
            lin = model.terms(flat, lin_gather)
            const = model.terms(flat, const_gather)
            assert lin.shape == (4, q) and const.shape == (4, 1)
            for s, rows in enumerate(stack):
                def f(x):
                    at = rows.copy()
                    at[v] = x
                    return coeffs @ _window_law(at, model.table)
                f0 = f(np.zeros(q))
                assert abs(const[s, 0] - f0) <= 1e-15, (k, side, v)
                for a in range(q):
                    assert abs(lin[s, a] - (f(np.eye(q)[a]) - f0)) <= 1e-15, (k, side, v)


def test_sweep_hard_stack_matches_single_starts(monkeypatch):
    # the stacked polish runs every start as a stack of one would, exactly;
    # a start run alone makes n `_slice_duals` calls per sweep, so the
    # calls count its sweeps, and some starts stop after different numbers
    calls = 0
    duals = indentropy._slice_duals

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return duals(*args, **kwargs)

    monkeypatch.setattr(indentropy, "_slice_duals", counted)
    rng = np.random.default_rng(1)
    cap = np.array([0.0, 0.0, 0.0, 1.0])
    cases = (  # (window, side, coefficient rows, bounds): the benchmark's
        # single cap and two-row systems, and a zero budget (no 11)
        (2, 5, [cap], [0.1]),
        (2, 5, [np.array([0.0, 0.5, 0.5, 1.0]), cap], [0.4, 0.15]),
        (3, 4, [np.array([0.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.5, 1.0]),
                np.eye(8)[7]], [0.3, 0.05]),
        (2, 6, [cap], [0.0]),
    )
    uneven = []
    for k, side, coeff_list, bounds in cases:
        model = _WindowModel(ConstraintSet(BIN, Shape.segment(k), tuple(
            LinearConstraint(c, b) for c, b in zip(coeff_list, bounds))), side)
        ones = rng.uniform(0.0, 0.5, size=(8, side))
        if bounds == [0.0]:
            ones[:, 1::2] = 0.0
        starts = np.stack([1.0 - ones, ones], axis=2)
        if bounds == [0.1]:   # polish the ascent's rows, as `hind_fixed_n` does
            starts = indentropy._optimize_single_cap(model, starts, cap, 0.1)
        batch = indentropy._sweep_hard(model, starts.copy(), bounds, coeff_list)
        sweeps = set()
        for i in range(len(starts)):
            calls = 0
            alone = indentropy._sweep_hard(model, starts[i:i + 1].copy(), bounds,
                                           coeff_list)
            assert np.array_equal(batch[i], alone[0]), (k, side, bounds, i)
            sweeps.add(calls // side)
        uneven.append(len(sweeps) > 1)
    assert any(uneven)


def _sweep_hard_per_start(model, rows, bounds_eff, coeff_list):
    """Reference polish: `_sweep_hard` with one `pressure_dual` call per
    start per site, and each start's entropy summed site by site."""
    gathers = [model.site_gathers(c) for c in coeff_list]
    lams = np.zeros(rows.shape[:2] + (len(coeff_list),))
    prev = np.full(len(rows), -math.inf)
    live = np.arange(len(rows))
    for _ in range(indentropy._HARD_SWEEPS):
        sub = rows[live]
        flat = sub.reshape(len(live), -1)
        for v in range(model.side):
            site = [g[v] for g in gathers]
            lins = np.stack([model.terms(flat, lin) for lin, _ in site], axis=1)
            consts = np.concatenate([model.terms(flat, const) for _, const in site], axis=1)
            for i, s in enumerate(live):
                try:
                    sol = pressure_dual(lins[i], np.subtract(bounds_eff, consts[i]),
                                        [False] * len(coeff_list), model.q, 1, sub[i, v],
                                        lams[s, v], max_iter=indentropy._SLICE_ITER,
                                        gap_tol=indentropy._SLICE_GAP)
                except ValidationError:
                    continue
                sub[i, v], lams[s, v] = sol.measure, sol.lam
        rows[live] = sub
        val = np.zeros(len(live))
        for i, start in enumerate(sub):
            for r in start:
                val[i] += _entropy_vec(r)
        done = val <= prev[live] + indentropy._SWEEP_STOP
        prev[live] = val
        live = live[~done]
        if not live.size:
            break
    return rows


def test_sweep_hard_matches_per_start_polish():
    # the benchmark's single caps and two-row systems: the stacked polish
    # gives every start the rows of its own per-site `pressure_dual` calls
    rng = np.random.default_rng(3)
    w2 = [np.array([0.0, 0.5, 0.5, 1.0]), np.eye(4)[3]]
    w3 = [np.array([0.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.5, 1.0]), np.eye(8)[7]]
    cases = (  # (window, side, coefficient rows, relaxed bounds)
        (3, 3, [np.eye(8)[7]], [0.05]),
        (2, 2, [np.eye(4)[3]], [0.1]),
        (2, 4, [np.eye(4)[3]], [0.11]),
        (2, 4, w2, [0.4, 0.15]),
        (3, 4, w3, [0.3, 0.05]),
        (3, 5, w3, [0.31, 0.06]),   # eps = 0.01
    )
    for k, side, coeff_list, bounds in cases:
        model = _WindowModel(ConstraintSet(BIN, Shape.segment(k), tuple(
            LinearConstraint(c, b) for c, b in zip(coeff_list, bounds))), side)
        ones = rng.uniform(0.0, 0.6, size=(12, side))
        starts = np.stack([1.0 - ones, ones], axis=2)
        if len(coeff_list) == 1:   # polish the ascent's rows, as `hind_fixed_n` does
            starts = indentropy._optimize_single_cap(model, starts, coeff_list[0], bounds[0])
        got = indentropy._sweep_hard(model, starts.copy(), bounds, coeff_list)
        want = _sweep_hard_per_start(model, starts.copy(), bounds, coeff_list)
        assert np.array_equal(got, want), (k, side, bounds)


def test_hind_reports_starts_run():
    # `restarts` counts the starts run: the random restarts plus the warm
    # starts that passed the screen, and none when no start is feasible
    res = hind_fixed_n(rll_constraint(1, 0.1), 2, restarts=3, seed=0)
    assert res.feasible and res.restarts == 5
    empty = ConstraintSet(BIN, Shape.segment(1), (
        LinearConstraint(np.array([1.0, 1.0]), 0.0, "=="),))
    res = hind_fixed_n(empty, 2, restarts=3, seed=0)
    assert not res.feasible and res.measure is None and res.restarts == 0
    # mu(1) == 0.3 has no admissible word at n = 4 and the uniform start
    # misses it, so with no restarts the screen meets an empty stack
    equal = ConstraintSet(BIN, Shape.segment(1), (
        LinearConstraint(np.array([0.0, 1.0]), 0.3, "=="),))
    res = hind_fixed_n(equal, 4, restarts=0, seed=0)
    assert not res.feasible and res.measure is None and res.restarts == 0


def test_hind_single_cap_results_are_certified():
    # a seeded battery of single caps, slack and binding, at eps 0 and above
    rng = np.random.default_rng(13)
    for _ in range(16):
        k = int(rng.integers(0, 3))
        p = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
        eps = float(rng.choice([0.0, 0.01]))
        side = int(rng.integers(k + 1, 5))
        res = hind_fixed_n(rll_constraint(k, p), side, eps, restarts=2, seed=5)
        assert res.feasible and res.distance <= eps + 1e-8, (k, p, side, eps)
        cap = capacity_1d(rll_constraint(k, p + eps)).value
        assert res.value <= cap + 1e-9, (k, p, side, eps)


def test_hind_deterministic_given_seed():
    gamma = rll_constraint(1, 0.05)
    a = hind_fixed_n(gamma, 3, restarts=6, seed=7)
    b = hind_fixed_n(gamma, 3, restarts=6, seed=7)
    assert a.value == b.value
    assert np.array_equal(a.measure.site_dists, b.measure.site_dists)


def test_hind_random_starts_are_pinned():
    # on the two-row system the best start depends on the seed's draws, so
    # these values pin the random starts themselves
    for restarts, seed, value in ((2, 0, 0.9579755596844003), (2, 2, 0.9417094424652749),
                                  (0, 0, 0.9364084392275019)):
        res = hind_fixed_n(_TWO_ROWS, 3, 0.01, restarts=restarts, seed=seed)
        assert res.feasible and res.restarts == restarts + 2
        assert abs(res.value - value) <= 1e-12, (restarts, seed)


def test_hind_without_restarts_leaves_numpy_random_unimported():
    # a fresh interpreter: with no random start to draw, hind_fixed_n never
    # touches numpy.random (numpy 1.x imports it with numpy itself)
    script = (
        "import sys, numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    print('preloaded'); raise SystemExit\n"
        "from semicap.indentropy import hind_fixed_n\n"
        "from semicap.scs_model import rll_constraint\n"
        "hind_fixed_n(rll_constraint(1, 0.1), 3, restarts=0)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    if out == "preloaded":
        pytest.skip("import numpy already loads numpy.random")
    assert out == "False"


# ---------------------------------------------------------------------------
# Axial lifts
# ---------------------------------------------------------------------------

def test_axial_lift_preserves_rate():
    gamma = rll_constraint(2, 0.05)
    res = hind_fixed_n(gamma, 3, restarts=10, seed=0)
    for dim in (2, 3):
        lifted = axial_lift(res.measure, dim)
        assert lifted.dim == dim
        assert lifted.side == 3
        rate = product_entropy(lifted) / 3 ** dim
        assert rate == pytest.approx(res.value, abs=1e-12)


def test_axial_lift_structure():
    # site (i, j) carries the 1-D distribution of row (i + j) mod n
    rows = np.array([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])
    mu = SiteProductMeasure(BIN, 1, 3, rows)
    lifted = axial_lift(mu, 2)
    dists = lifted.site_dists.reshape(3, 3, 2)
    for i in range(3):
        for j in range(3):
            assert np.allclose(dists[i, j], rows[(i + j) % 3])


@pytest.mark.parametrize("dim", [2.5, "2", 0])
def test_axial_lift_rejects_bad_dimension(dim):
    mu = SiteProductMeasure(BIN, 1, 2, np.full((2, 2), 0.5))
    with pytest.raises(ValidationError, match="dimension"):
        axial_lift(mu, dim)


# ---------------------------------------------------------------------------
# Multi-choice fillings
# ---------------------------------------------------------------------------

def test_multichoice_word_basics():
    w = MultiChoiceWord(BIN, np.array([1, 3, 1, 3]))
    assert w.side == 4
    assert w.sets() == [(0,), (0, 1), (0,), (0, 1)]
    assert fillings_count(w) == 4
    with pytest.raises(ValidationError):
        MultiChoiceWord(BIN, np.array([0, 3]))  # empty cell


def test_hind_com_no_adjacent_ones():
    # 2 mu(11) <= 0 forbids 11 as the 0/1 row does
    for gamma in (rll_constraint(1, 0.0), _system(([0, 0, 0, 2], 0.0))):
        by_side = {n: hind_com_fixed_n(gamma, n) for n in (4, 5, 6, 8)}
        assert by_side[4].value == pytest.approx(0.5)
        assert by_side[4].fillings == 4
        assert by_side[4].witness.sets() in (
            [(0,), (0, 1), (0,), (0, 1)], [(0, 1), (0,), (0, 1), (0,)])
        # odd cycles cannot alternate: strictly below half a bit
        assert by_side[5].value == pytest.approx(math.log2(4) / 5)
        assert by_side[6].value == pytest.approx(0.5)
        assert by_side[6].fillings == 8
        assert by_side[8].fillings == 16


def test_hind_com_witness_is_admissible():
    # every filling of the witness must avoid the forbidden pattern cyclically
    gamma = rll_constraint(1, 0.0)
    res = hind_com_fixed_n(gamma, 6)
    sets = res.witness.sets()
    n = len(sets)
    for i in range(n):
        assert not (1 in sets[i] and 1 in sets[(i + 1) % n])


def test_hind_com_infeasible():
    # forbidding both symbols as length-1 patterns kills every word
    gamma = ConstraintSet(BIN, Shape.segment(1), (
        LinearConstraint(np.array([1.0, 0.0]), 0.0),
        LinearConstraint(np.array([0.0, 1.0]), 0.0)))
    res = hind_com_fixed_n(gamma, 3)
    assert res.value == -math.inf
    assert res.witness is None


def test_hind_com_rejects_soft_rows():
    with pytest.raises(ValidationError):
        hind_com_fixed_n(rll_constraint(2, 0.05), 4)


@pytest.mark.parametrize("side", [0, -1, 2.5])
def test_hind_com_rejects_bad_sides(side):
    with pytest.raises(ValidationError, match="side"):
        hind_com_fixed_n(rll_constraint(1, 0.0), side)


# ---------------------------------------------------------------------------
# The assembled report
# ---------------------------------------------------------------------------

def test_bound_report_soft_cap():
    gamma = rll_constraint(2, 0.05)
    rep = hind_bound_report(gamma, 2, eps_list=(0.0,), sides=(3, 4),
                            restarts=8, seed=0)
    assert rep.dim == 2
    assert len(rep.rows) == 2
    assert rep.best.feasible
    assert rep.best.value >= 0.94
    assert rep.lift is not None and rep.lift.dim == 2
    assert rep.lift_rate_error <= 1e-12


def test_bound_report_curve_reference():
    gamma = rll_constraint(1, 0.05)
    rep = hind_bound_report(gamma, 1, eps_list=(0.0,), sides=(2, 3),
                            restarts=8, seed=0)
    assert rep.curve_reference == pytest.approx(curve_optimum_01p(0.05).value)
    assert rep.best.value >= rep.curve_reference - 1e-6
    # a window-3 family carries no closed-form reference
    rep3 = hind_bound_report(rll_constraint(2, 0.05), 1, eps_list=(0.0,),
                             sides=(3,), restarts=6, seed=0)
    assert rep3.curve_reference is None
    # nor does a cap of 1.5 on mu(11), which binds nothing
    rep_free = hind_bound_report(rll_constraint(1, 1.5), 1, eps_list=(0.0,),
                                 sides=(2, 3), restarts=2, seed=0)
    assert rep_free.curve_reference is None and rep_free.best.value == 1.0


def test_bound_report_ties_go_to_the_smallest_side(monkeypatch):
    # rll(1, .1)'s sides 2-6 reach the same optimum, their values a few
    # ulps apart: the smallest side is the best, not the one rounding up
    rep = hind_bound_report(rll_constraint(1, 0.1), 1, eps_list=(0.0,), restarts=2, seed=0)
    top = max(r.value for r in rep.rows)
    assert all(r.value >= top - 4 * math.ulp(top) for r in rep.rows)
    assert rep.best.side == 2
    # 4 ulps is the tie: a side further below the top loses to it
    u, measure = math.ulp(0.9), SiteProductMeasure(BIN, 1, 2, np.full((2, 2), 0.5))
    values = {2: 0.9 + 8 * u, 3: 0.9, 4: 0.9 + 7 * u, 5: 0.9 + 12 * u, 6: 0.9 + 11 * u}
    monkeypatch.setattr(indentropy, "hind_fixed_n", lambda gamma, n, eps, **kwargs:
                        indentropy.HindResult(values[n], measure, n, eps, True, 0.0, 1))
    for sides, best in (((2, 3, 4, 5, 6), 2), ((3, 4, 5, 6), 5), ((3, 4), 4), ((6, 5), 5)):
        rep = hind_bound_report(rll_constraint(1, 0.1), 1, eps_list=(0.0,), sides=sides)
        assert rep.best.side == best, sides


def test_bound_report_rejects_empty_eps_list():
    with pytest.raises(ValidationError, match="eps_list"):
        hind_bound_report(rll_constraint(1, 0.05), 2, eps_list=(), sides=(2,))


def test_bound_report_filters_short_sides():
    gamma = rll_constraint(2, 0.05)
    rep = hind_bound_report(gamma, 1, eps_list=(0.0,), sides=(2, 3),
                            restarts=6, seed=0)
    assert rep.sides == (3,)
    with pytest.raises(ValidationError):
        hind_bound_report(gamma, 1, eps_list=(0.0,), sides=(2,))


@pytest.mark.parametrize("kwargs", [dict(sides=(2.5,)), dict(sides=(3, 4.5)),
                                    dict(dim=2.5)])
def test_bound_report_rejects_fractional_sides_and_dimension(kwargs):
    # a fractional side is not truncated to a shorter one, and a fractional
    # dimension fails as bad input, not as a TypeError inside the lift
    args = dict(dim=2, eps_list=(0.0,), sides=(3,), restarts=1) | kwargs
    with pytest.raises(ValidationError, match="side|dimension"):
        hind_bound_report(rll_constraint(1, 0.05), args.pop("dim"), **args)
