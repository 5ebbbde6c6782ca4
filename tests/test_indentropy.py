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
from semicap.scs_model import ConstraintSet, LinearConstraint, rll_constraint
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
from semicap.indentropy import _WindowModel
from semicap.lattice_core import _window_law

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
    with pytest.raises(ValidationError):
        PeriodicProductMeasure(BIN, 2, np.array([[0.5, 0.5]]))


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


def test_hind_deterministic_given_seed():
    gamma = rll_constraint(1, 0.05)
    a = hind_fixed_n(gamma, 3, restarts=6, seed=7)
    b = hind_fixed_n(gamma, 3, restarts=6, seed=7)
    assert a.value == b.value
    assert np.array_equal(a.measure.site_dists, b.measure.site_dists)


def test_site_coeffs_affine_identity():
    # each row's functional is affine in one site: const + lin . p_v must
    # equal c . averaged(rows) at every site, for every row at once
    rng = np.random.default_rng(41)
    tri = Alphabet.of_size(3)
    for alphabet, k, side in ((BIN, 2, 5), (tri, 3, 4)):
        m = alphabet.size ** k
        coeffs = rng.random((2, m))
        coeffs[0, rng.random(m) < 0.3] = 0.0   # sparse rows skip patterns
        gamma = ConstraintSet(alphabet, Shape.segment(k), tuple(
            LinearConstraint(c, 0.5) for c in coeffs))
        model = _WindowModel(gamma, side)
        for _ in range(5):
            rows = rng.dirichlet(np.ones(alphabet.size), size=side)
            target = coeffs @ _window_law(rows, model.table)
            for v in range(side):
                lin, const = model.site_coeffs(rows, v, coeffs)
                assert lin.shape == (2, alphabet.size) and const.shape == (2,)
                np.testing.assert_allclose(const + lin @ rows[v], target,
                                           rtol=0, atol=1e-15)
                # one call for all rows gives each row's own values exactly
                for r in range(2):
                    (lin_r,), (const_r,) = model.site_coeffs(rows, v, coeffs[r:r + 1])
                    assert np.array_equal(lin_r, lin[r]) and const_r == const[r]


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
    gamma = rll_constraint(1, 0.0)
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


def test_bound_report_filters_short_sides():
    gamma = rll_constraint(2, 0.05)
    rep = hind_bound_report(gamma, 1, eps_list=(0.0,), sides=(2, 3),
                            restarts=6, seed=0)
    assert rep.sides == (3,)
    with pytest.raises(ValidationError):
        hind_bound_report(gamma, 1, eps_list=(0.0,), sides=(2,))
