"""Independence-entropy lower bounds: product measures, the window-2 cap
curve, the fixed-n optimiser, axial lifts, and multi-choice counting."""
import math

import numpy as np
import pytest

from semicap.lattice_core import (
    Alphabet,
    Shape,
    SiteProductMeasure,
    ValidationError,
    product_entropy,
)
from semicap.capacity import capacity_1d, transfer_matrix_capacity
from semicap.scs_model import (
    ConstraintSet,
    LinearConstraint,
    fully_constrained,
    rll_constraint,
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
from semicap.lattice_core import _window_law, pattern_from_index

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


# ---------------------------------------------------------------------------
# Periodic product measures
# ---------------------------------------------------------------------------

def test_periodic_measure_basics():
    mu = PeriodicProductMeasure(BIN, 2, np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert mu.entropy_rate() == pytest.approx(0.5)
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
    assert mu.entropy_rate() == pytest.approx(h2(0.25))
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


def test_hind_empty_system_is_one_bit():
    # no row binds: the unconstrained optimum, with no polish to run
    res = hind_fixed_n(ConstraintSet(BIN, Shape.segment(2), ()), 3, restarts=2)
    assert res.feasible and res.value == 1.0


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
    # the multiplier search converges superlinearly (13 fixed-point solves
    # per start here); bisecting to double precision takes about 85.  The
    # starts share each batched solve, so a call counts its live starts.
    calls = 0
    solve = indentropy._lagrangian_fixed_point

    def counted(model, rows, coeffs, lam):
        nonlocal calls
        calls += len(rows)
        return solve(model, rows, coeffs, lam)

    monkeypatch.setattr(indentropy, "_lagrangian_fixed_point", counted)
    res = hind_fixed_n(rll_constraint(2, 0.05), 3, restarts=20, seed=0)
    assert res.feasible and res.restarts == 22
    assert calls <= 25 * res.restarts


def test_hind_batch_matches_single_starts(monkeypatch):
    # the batched ascent runs every start as a stack of one would: the same
    # rows, and the same fixed-point solves (inputs and number) per start;
    # at the window-3 cap 0.11 the starts stop after different numbers of
    # solves, so the stack's live set shrinks unevenly
    solves = []
    solve = indentropy._lagrangian_fixed_point

    def recorded(model, rows, coeffs, lam):
        solves.extend(zip(rows.copy(), lam.copy()))
        return solve(model, rows, coeffs, lam)

    monkeypatch.setattr(indentropy, "_lagrangian_fixed_point", recorded)
    rng = np.random.default_rng(29)
    tri = Alphabet.of_size(3)
    cases = (  # (alphabet, window, side, capped patterns, cap, slack?)
        (BIN, 1, 3, [1], 0.2, False),
        (BIN, 2, 4, [3], 0.1, False),
        (BIN, 2, 3, [3], 0.6, True),
        (BIN, 3, 4, [7], 0.11, False),
        (BIN, 3, 5, [7], 0.11, False),
        (BIN, 3, 4, [3, 6], 0.05, False),
        (tri, 1, 3, [2], 0.9, True),
        (tri, 2, 3, [8], 0.03, False),
        (tri, 3, 3, [13, 26], 0.01, False),
    )
    uneven = []
    for alphabet, k, side, capped, bound, slack in cases:
        coeffs = np.zeros(alphabet.size ** k)
        coeffs[capped] = 1.0
        model = _WindowModel(ConstraintSet(alphabet, Shape.segment(k), (
            LinearConstraint(coeffs, bound),)), side)
        starts = rng.dirichlet(np.ones(alphabet.size), size=(5, side))
        solves.clear()
        batch = indentropy._optimize_single_cap(model, starts, coeffs, bound)
        unmatched, counts = list(solves), set()
        for i in range(len(starts)):
            solves.clear()
            alone = indentropy._optimize_single_cap(model, starts[i:i + 1], coeffs, bound)
            # only per-start arithmetic: equal exactly, not just to 1e-15
            assert np.array_equal(batch[i], alone[0]), (k, side, i)
            assert (len(solves) == 1) == slack, (k, side, i)
            counts.add(len(solves))
            for rows, lam in solves:
                twin = next((j for j, (r, lm) in enumerate(unmatched)
                             if lm == lam and np.array_equal(r, rows)), None)
                assert twin is not None, (k, side, i, lam)
                del unmatched[twin]
        assert not unmatched, (k, side)
        uneven.append(len(counts) > 1)
    assert any(uneven)


def test_hind_benchmark_values():
    # the four product-measure bounds a benchmark `bounds` round computes
    two_rows = ConstraintSet(BIN, Shape.segment(2), (
        LinearConstraint(np.array([0.0, 0.5, 0.5, 1.0]), 0.4),
        LinearConstraint(np.array([0.0, 0.0, 0.0, 1.0]), 0.15)))
    for gamma, side, eps, value in (
            (rll_constraint(2, 0.05), 3, 0.0, 0.9494380930666207),
            (rll_constraint(1, 0.1), 2, 0.0, 0.9002320226345673),
            (rll_constraint(1, 0.1), 4, 0.01, 0.9166159099453555),
            (two_rows, 4, 0.0, 0.9539600076279061)):
        res = hind_fixed_n(gamma, side, eps)
        assert res.feasible and abs(res.value - value) <= 1e-15, (side, eps)


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
    # a start run alone makes n `pressure_dual` calls per sweep, so the
    # calls count its sweeps, and some starts stop after different numbers
    calls = 0
    dual = indentropy.pressure_dual

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return dual(*args, **kwargs)

    monkeypatch.setattr(indentropy, "pressure_dual", counted)
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


def test_hind_reports_starts_run():
    # `restarts` counts the starts run: the random restarts plus the warm
    # starts that passed the screen, and none when no start is feasible
    res = hind_fixed_n(rll_constraint(1, 0.1), 2, restarts=3, seed=0)
    assert res.feasible and res.restarts == 5
    empty = ConstraintSet(BIN, Shape.segment(1), (
        LinearConstraint(np.array([1.0, 1.0]), 0.0, "=="),))
    res = hind_fixed_n(empty, 2, restarts=3, seed=0)
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
    assert rep.lower_bound == rep.best.value
    assert rep.lower_bound >= 0.94
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
    assert rep_free.curve_reference is None and rep_free.lower_bound == 1.0


def test_bound_report_filters_short_sides():
    gamma = rll_constraint(2, 0.05)
    rep = hind_bound_report(gamma, 1, eps_list=(0.0,), sides=(2, 3),
                            restarts=6, seed=0)
    assert rep.sides == (3,)
    with pytest.raises(ValidationError):
        hind_bound_report(gamma, 1, eps_list=(0.0,), sides=(2,))
