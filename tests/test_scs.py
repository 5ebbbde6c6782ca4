"""Constraint sets, distances, admissibility, and exact counting."""
import itertools
import math

import numpy as np
import pytest

from semicap.lattice_core import (
    Alphabet,
    PatternDistribution,
    Shape,
    SizeGuardError,
    ValidationError,
    Word,
    empirical_distribution,
)
from semicap import scs_model
from semicap.scs_model import (
    AxialSystem,
    ConstraintSet,
    EmptySystemError,
    LinearConstraint,
    axial_product,
    count_admissible,
    count_admissible_noncyclic,
    count_exhaustive,
    find_admissible_word,
    fully_constrained,
    is_admissible,
    rll_constraint,
    tv_distance_to_set,
)
from semicap.indentropy import hind_fixed_n

BIN = Alphabet.binary()

# cyclic/non-cyclic counts for the no-adjacent-ones system follow the
# classic integer sequences
LUCAS = {2: 3, 3: 4, 4: 7, 5: 11, 6: 18, 7: 29, 8: 47, 9: 76, 10: 123,
         11: 199, 12: 322, 13: 521, 14: 843}
FIBONACCI_N_PLUS_2 = {2: 3, 3: 5, 4: 8, 5: 13, 6: 21, 7: 34, 8: 55, 9: 89,
                      10: 144}


def test_rll_constraint_structure():
    g = rll_constraint(2, 0.05)
    assert g.shape == Shape.segment(3)
    assert g.npatterns == 8
    (con,) = g.constraints
    assert con.sense == "<="
    assert con.bound == 0.05
    assert con.coeffs[7] == 1.0 and con.coeffs[:7].sum() == 0.0
    # the row arrays, in row order, read-only
    mixed = ConstraintSet(BIN, Shape.segment(2), (
        LinearConstraint([0.0, 1.0, 1.0, 0.0], 0.5),
        LinearConstraint([0.0, 0.0, 0.0, 1.0], 0.0, "==")))
    assert mixed.coeffs.tolist() == [[0, 1, 1, 0], [0, 0, 0, 1]]
    assert mixed.bounds.tolist() == [0.5, 0.0]
    assert mixed.equal.tolist() == [False, True]
    assert g.coeffs.shape == (1, 8) and g.bounds.tolist() == [0.05]
    for arr in (g.coeffs, g.bounds, g.equal):
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_constraint_data_is_rejected(value):
    with pytest.raises(ValidationError):
        rll_constraint(1, value)
    with pytest.raises(ValidationError):
        LinearConstraint([0.0, 1.0], value)
    with pytest.raises(ValidationError):
        LinearConstraint([value, 1.0], 0.5)


def test_uniform_membership_threshold():
    # the uniform pair/triple measure has all-ones frequency 2^-(k+1)
    u2 = PatternDistribution.uniform(BIN, Shape.segment(2))
    assert rll_constraint(1, 0.25).contains(u2)
    assert not rll_constraint(1, 0.2).contains(u2)
    u3 = PatternDistribution.uniform(BIN, Shape.segment(3))
    assert rll_constraint(2, 0.125).contains(u3)


def test_distance_closed_form_matches_lp():
    """For a single mass cap the distance is max(0, excess); the LP must
    agree, and a two-row system exercises the LP path directly."""
    shape = Shape.segment(2)
    mu = PatternDistribution.from_floats(BIN, shape, [0.2, 0.2, 0.3, 0.3])
    single = rll_constraint(1, 0.1)
    assert tv_distance_to_set(mu, single) == pytest.approx(0.2)
    generous = rll_constraint(1, 0.5)
    assert tv_distance_to_set(mu, generous) == 0.0
    two_rows = ConstraintSet(BIN, shape, [
        LinearConstraint((0, 0, 0, 1), 0.1, "<="),
        LinearConstraint((1, 0, 0, 0), 0.1, "<="),
    ])
    d = tv_distance_to_set(mu, two_rows)
    # moving 0.2 off pattern 11 and 0.1 off pattern 00 onto the free
    # patterns costs (0.2 + 0.1) of one-sided mass
    assert d == pytest.approx(0.3, abs=1e-8)


def _rows(*rows, sense="<=", window=2):
    return ConstraintSet(BIN, Shape.segment(window), tuple(
        LinearConstraint(np.array(c, dtype=float), b, sense) for c, b in rows))


def test_rows_are_classified_by_what_they_mean():
    c11 = [0.0, 0.0, 0.0, 1.0]
    for g in (rll_constraint(1, 0.1), _rows(([0, 0, 0, 2], 0.2)),
              _rows(([0, 0, 0, 0.5], 0.05)),
              _rows(([0, 0, 0, 1], 0.1), ([1, 0, 0, 0], 1.0))):
        assert g.forbidden is None
        assert g.cap[0].tolist() == c11 and g.cap[1] == 0.1
    shifted = _rows(([1, 1, 1, 2], 1.1)).cap
    assert shifted[0].tolist() == c11 and abs(shifted[1] - 0.1) <= 1e-15
    # a zero-bound row forbids what it charges, whatever its weights or sense
    for g in (rll_constraint(1, 0.0), _rows(([0, 0, 0, 2], 0.0)),
              _rows(([1, 1, 1, 2], 1.0), sense="=="),
              fully_constrained(BIN, Shape.segment(2), [(1, 1)])):
        assert g.forbidden.tolist() == c11
        assert g.cap[0].tolist() == c11 and g.cap[1] == 0.0
    both = fully_constrained(BIN, Shape.segment(2), [(1, 1), (0, 0)])
    assert both.forbidden.tolist() == both.cap[0].tolist() == [1.0, 0.0, 0.0, 1.0]
    # no row left: nothing forbidden and an infinite cap
    for g in (_rows(), _rows(([0, 0, 0, 1], 1.0)), _rows(([2, 2, 2, 2], 2.0), sense="==")):
        assert g.forbidden.tolist() == [0.0] * 4
        assert g.cap[0].tolist() == [0.0] * 4 and g.cap[1] == math.inf
    # every pattern forbidden is still fully constrained, but no cap
    everything = _rows(([1, 0], 0.0), ([0, 1], 0.0), window=1)
    assert everything.forbidden.tolist() == [1.0, 1.0] and everything.cap is None
    # general weights, two binding rows, and rows no distribution meets
    for g in (_rows(([0, 0.5, 0.5, 1], 0.4)),
              _rows(([0, 0, 0, 1], 0.1), ([1, 0, 0, 0], 0.1)),
              _rows(([0, 0, 0, 1], 0.1), sense="=="),
              _rows(([0, 0, 0, 1], -0.1)), _rows(([1, 1, 1, 1], 0.5))):
        assert g.forbidden is None and g.cap is None
    with pytest.raises(ValueError):
        rll_constraint(1, 0.1).cap[0][0] = 1.0


def test_distance_closed_form_ignores_how_rows_are_written(monkeypatch):
    # each spelling of mu(11) <= 0.1 is the one cap, so no LP runs
    def no_lp(*args, **kwargs):
        raise AssertionError("the single-cap distance solved an LP")

    monkeypatch.setattr(scs_model, "solve_lp", no_lp)
    rng = np.random.default_rng(11)
    shape = Shape.segment(2)
    for _ in range(20):
        mu = PatternDistribution.from_floats(BIN, shape, rng.dirichlet(np.ones(4)))
        ref = tv_distance_to_set(mu, rll_constraint(1, 0.1))
        for g in (_rows(([0, 0, 0, 2], 0.2)), _rows(([0, 0, 0, 0.5], 0.05)),
                  _rows(([0, 0, 0, 1], 0.1), ([1, 0, 0, 0], 1.0))):
            assert tv_distance_to_set(mu, g) == ref
        assert abs(tv_distance_to_set(mu, _rows(([1, 1, 1, 2], 1.1))) - ref) <= 1e-15


def _grid_distance(mu_probs, cons, denom=60):
    """Oracle: minimum TV distance to the constraint set over the grid of
    distributions with the given denominator."""
    best = np.inf
    m = len(mu_probs)
    for comp in itertools.product(range(denom + 1), repeat=m - 1):
        if sum(comp) > denom:
            continue
        nu = np.array(comp + (denom - sum(comp),), dtype=float) / denom
        if all(c.satisfied(nu, tol=1e-9) for c in cons):
            best = min(best, 0.5 * np.abs(nu - mu_probs).sum())
    return best


def test_distance_against_grid_oracle():
    rng = np.random.default_rng(3)
    shape = Shape.segment(2)
    for trial in range(4):
        mu_probs = rng.dirichlet(np.ones(4))
        mu = PatternDistribution.from_floats(BIN, shape, mu_probs)
        if trial % 2 == 0:
            cons = [LinearConstraint((0, 0, 0, 1), 0.15, "<=")]
        else:
            cons = [
                LinearConstraint((0, 0, 0, 1), 0.2, "<="),
                LinearConstraint((0.5, 0.5, 0, 0), 0.45, "<="),
            ]
        gamma = ConstraintSet(BIN, shape, cons)
        lp = tv_distance_to_set(mu, gamma)
        grid = _grid_distance(mu_probs, cons)
        assert lp <= grid + 1e-9          # the grid point is feasible for the LP
        assert grid - lp <= 2.0 / 60      # grid resolution bound


def test_feasible_point_and_empty_system():
    g = rll_constraint(2, 0.05)
    point = g.feasible_point()
    assert g.contains(point)
    empty = ConstraintSet(BIN, Shape.segment(2), [
        LinearConstraint((0, 0, 0, 1), 0.0, "=="),
        LinearConstraint((0, 0, 0, -1), -0.2, "<="),  # mass(11) >= 0.2
    ])
    with pytest.raises(EmptySystemError):
        empty.feasible_point()


def test_is_admissible_exact_and_relaxed():
    g = rll_constraint(1, 0.0)
    assert is_admissible(Word.from_string("0100"), g)
    assert not is_admissible(Word.from_string("0110"), g)
    # 0110 has pair frequency fr(11)=1/4; within eps=0.3 but not 0.2
    assert is_admissible(Word.from_string("0110"), g, eps=0.3)
    assert not is_admissible(Word.from_string("0110"), g, eps=0.2)


def test_decimal_caps_are_exact():
    # rll(0, p) caps the number of ones in a 10-cycle at 10p, read as the
    # decimal p: Fraction(0.3) is below 3/10 and would reject three ones
    for i in range(1, 10):
        gamma = rll_constraint(0, i / 10)
        binomial = sum(math.comb(10, j) for j in range(i + 1))
        assert count_admissible(10, gamma) == binomial
        assert count_exhaustive(10, gamma) == binomial
    w = Word.from_string("1110000000")
    gamma = rll_constraint(0, 0.3)
    assert is_admissible(w, gamma)
    assert gamma.contains(empirical_distribution(w, gamma.shape))


def test_cyclic_counts_no_adjacent_ones():
    g = rll_constraint(1, 0.0)
    for n, expect in LUCAS.items():
        assert count_admissible(n, g) == expect


def test_noncyclic_counts_no_adjacent_ones():
    # 2 mu(11) <= 0 forbids 11 as the 0/1 row does
    for g in (rll_constraint(1, 0.0), _rows(([0, 0, 0, 2], 0.0))):
        for n, expect in FIBONACCI_N_PLUS_2.items():
            assert count_admissible_noncyclic(n, g) == expect


def test_noncyclic_trailing_window_convention():
    # leaving the last window unchecked doubles the classic count
    g = rll_constraint(1, 0.0)
    for n, expect in {3: 6, 4: 10, 5: 16, 6: 26, 7: 42}.items():
        assert count_admissible_noncyclic(n, g, convention="halfopen") == expect
    for n in range(3, 9):
        tile = count_admissible_noncyclic(n, g, convention="tile")
        halfopen = count_admissible_noncyclic(n, g, convention="halfopen")
        assert tile <= halfopen


def _random_system(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        k = int(rng.integers(1, 3))
        return rll_constraint(k, float(rng.uniform(0, 0.3))), 1
    if kind == 1:
        length = int(rng.integers(1, 3))
        pats = set()
        for _ in range(rng.integers(1, 3)):
            pats.add(tuple(rng.integers(0, 2, size=length).tolist()))
        return fully_constrained(BIN, Shape.segment(length), sorted(pats)), 1
    if kind == 2:
        rows = [LinearConstraint(tuple(rng.uniform(0, 1, size=4)),
                                 float(rng.uniform(0.3, 1.0)), "<=")
                for _ in range(int(rng.integers(1, 3)))]
        return ConstraintSet(BIN, Shape.segment(2), rows), 1
    factor = rll_constraint(1, float(rng.uniform(0, 0.4)))
    mode = "strict" if rng.integers(0, 2) else "weak"
    return axial_product(factor, 2, mode), 2


def test_pruned_counter_matches_exhaustive_random():
    rng = np.random.default_rng(101)
    done = 0
    while done < 14:
        system, dim = _random_system(rng)
        n = int(rng.integers(3, 5)) if dim == 2 else int(rng.integers(4, 8))
        eps = float(rng.choice([0.0, 0.05]))
        fast = count_admissible(n, system, eps)
        slow = count_exhaustive(n, system, eps)
        assert fast == slow, f"mismatch on {system} n={n} eps={eps}"
        done += 1


def test_count_monotone_in_eps():
    g = rll_constraint(2, 0.05)
    counts = [count_admissible(6, g, e) for e in (0.0, 0.02, 0.1, 0.95)]
    assert counts == sorted(counts)
    # the worst word (all ones) sits at distance 1 - 0.05 from the cap, so
    # the last radius admits every word
    assert counts[-1] == 2 ** 6
    # rows whose eps-ball reach is not 1 prune by their own reach: at n = 9
    # one 11 pair (rate 1/9) lies within 0.02 of the cap 0.1
    for row, bound in (([0, 0, 0, 2], 0.2), ([0, 0, 0, 0.5], 0.05), ([1, 1, 1, 2], 1.1)):
        scaled = ConstraintSet(BIN, Shape.segment(2), (
            LinearConstraint(np.array(row, dtype=float), bound),))
        for n, eps in ((9, 0.02), (10, 0.05)):
            assert count_admissible(n, scaled, eps) == \
                count_admissible(n, rll_constraint(1, 0.1), eps), (row, n, eps)


def test_strict_subset_of_weak():
    rng = np.random.default_rng(55)
    for _ in range(4):
        factor = rll_constraint(1, float(rng.uniform(0.0, 0.3)))
        strict = count_admissible(3, axial_product(factor, 2, "strict"))
        weak = count_admissible(3, axial_product(factor, 2, "weak"))
        assert strict <= weak


def test_threads_agree_with_serial():
    g = rll_constraint(1, 0.0)
    assert count_admissible(10, g, threads=2) == LUCAS[10]
    system = axial_product(g, 2, "strict")
    assert count_admissible(4, system, threads=2) \
        == count_admissible(4, system, threads=1)


def test_find_admissible_word():
    g = rll_constraint(1, 0.0)
    w = find_admissible_word(5, g)
    assert w is not None and is_admissible(w, g)
    # an unsatisfiable system yields nothing
    empty = fully_constrained(BIN, Shape.segment(1), [(0,), (1,)])
    assert find_admissible_word(3, empty) is None


def _first_admissible(n, system, dim, eps, prefix=()):
    """Brute-force oracle: the first word in lexicographic cell order that
    starts with `prefix` and is admissible."""
    q = system.alphabet.size
    for tail in itertools.product(range(q), repeat=n ** dim - len(prefix)):
        cells = np.array(list(prefix) + list(tail), dtype=np.int64)
        w = Word(system.alphabet, cells.reshape((n,) * dim))
        if is_admissible(w, system, eps):
            return w
    return None


def _window2_system(rng, dim):
    """A nonempty window-2 polytope with signed coefficients, which also
    charge the pattern 00, so the first admissible word is often not all
    zeros; in 2-D its strict or weak axial product."""
    while True:
        rows = [LinearConstraint(tuple(rng.uniform(-0.5, 1.0, size=4)),
                                 float(rng.uniform(0.0, 0.5)), "<=")
                for _ in range(int(rng.integers(1, 3)))]
        gamma = ConstraintSet(BIN, Shape.segment(2), rows)
        try:
            gamma.feasible_point()
        except EmptySystemError:
            continue
        if dim == 1:
            return gamma
        return axial_product(gamma, 2, "strict" if rng.integers(0, 2) else "weak")


def test_find_admissible_word_is_lexicographically_first():
    rng = np.random.default_rng(404)
    for i in range(16):
        dim, eps = 1 + i % 2, (0.0, 0.0, 0.05, 0.05)[i % 4]
        system = _window2_system(rng, dim)
        n = 3 if dim == 2 else int(rng.integers(3, 8))
        prefix = rng.integers(0, 2, size=int(rng.integers(1, 4))).tolist()
        for pre in ((), prefix):
            got = find_admissible_word(n, system, eps, prefix=pre)
            want = _first_admissible(n, system, dim, eps, pre)
            if want is None:
                assert got is None, f"{system} n={n} eps={eps} prefix={pre}"
            else:
                assert got is not None and np.array_equal(got.cells, want.cells), \
                    f"{system} n={n} eps={eps} prefix={pre}"
    empty = fully_constrained(BIN, Shape.segment(1), [(0,), (1,)])
    assert _first_admissible(3, empty, 1, 0.0) is None
    assert find_admissible_word(3, empty) is None


def test_count_exceeds_int64():
    # the Lucas number L_100: counts are Python ints, never int64 or float64
    count = count_admissible(100, rll_constraint(1, 0.0))
    assert count == 792070839848372253127
    assert count > 2 ** 63


def test_two_dimensional_counts_pinned():
    # values the word-by-word search confirmed in minutes
    factor = rll_constraint(1, 0.1)
    assert count_admissible(5, axial_product(factor, 2, "strict")) == 1_128_256
    assert count_admissible(5, axial_product(factor, 2, "weak")) == 2_632_486
    hard_squares = axial_product(rll_constraint(1, 0.0), 2)
    assert count_admissible(6, hard_squares) == 2_406_862


def test_axial_system_validation():
    factor = rll_constraint(1, 0.1)
    other = rll_constraint(1, 0.2)
    with pytest.raises(ValidationError):
        AxialSystem((factor, other), 2, "weak")  # weak needs one common set
    sys_ = axial_product(factor, 2, "strict")
    assert sys_.axis_shape(0).points == ((0, 0), (1, 0))
    assert sys_.axis_shape(1).points == ((0, 0), (0, 1))


@pytest.mark.parametrize("call", [
    lambda g: count_admissible(4.5, g),
    lambda g: count_admissible_noncyclic(4.5, fully_constrained(BIN, Shape.segment(2), [(1, 1)])),
    lambda g: count_exhaustive(4.5, g),
    lambda g: find_admissible_word(4.5, g),
    lambda g: hind_fixed_n(g, 3.5),
], ids=["count_admissible", "count_admissible_noncyclic", "count_exhaustive",
        "find_admissible_word", "hind_fixed_n"])
def test_non_integral_side_is_rejected(call):
    with pytest.raises(ValidationError, match="whole number"):
        call(rll_constraint(1, 0.1))


@pytest.mark.parametrize("count", [count_admissible, count_exhaustive])
def test_side_below_one_is_rejected(count):
    # the oracle and the counter agree that a word needs a cell
    with pytest.raises(ValidationError, match="side must be >= 1"):
        count(0, rll_constraint(1, 0.1))


def test_counting_size_guard():
    g = rll_constraint(2, 0.5)
    with pytest.raises(SizeGuardError):
        count_admissible(30, axial_product(g, 3, "strict"), eps=0.4)


def test_transfer_size_guard_limits(monkeypatch):
    # one limit bounds both the frontier (cells * log2 q) and the live
    # states of a layer; lowered, each trips on a small input
    monkeypatch.setattr(scs_model, "MAX_STATE_BITS", 4)
    # a frontier of 4 cells passes, but the states carrying the row total
    # outgrow 2^4
    with pytest.raises(SizeGuardError, match="states"):
        count_admissible(30, rll_constraint(2, 0.5))
    # the first row stays in the frontier for the vertical wrap
    with pytest.raises(SizeGuardError, match="frontier"):
        count_admissible(5, axial_product(rll_constraint(1, 0.0), 2))
