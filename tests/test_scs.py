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


def test_equality_row_at_its_maximum_forbids():
    # mu(11) == 1 forbids 00, 01 and 10, as mu(00) + mu(01) + mu(10) == 0 does
    at_max = _rows(([0, 0, 0, 1], 1.0), sense="==")
    at_min = _rows(([1, 1, 1, 0], 0.0), sense="==")
    assert at_max.forbidden.tolist() == at_min.forbidden.tolist() == [1.0, 1.0, 1.0, 0.0]
    assert at_max.cap[0].tolist() == at_min.cap[0].tolist() and at_max.cap[1] == 0.0
    for n in range(2, 7):
        assert count_admissible_noncyclic(n, at_max) == count_admissible_noncyclic(n, at_min)
    for side, eps in ((2, 0.0), (3, 0.01)):
        a = hind_fixed_n(at_max, side, eps, restarts=2, seed=1)
        b = hind_fixed_n(at_min, side, eps, restarts=2, seed=1)
        assert a.feasible and b.feasible and a.value == b.value, (side, eps)


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
        if all(float(c.coeffs @ nu) <= c.bound + 1e-9 for c in cons):  # all "<="
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
    point = PatternDistribution.from_floats(BIN, g.shape, np.eye(8)[0])  # all 000
    assert g.contains(point) and tv_distance_to_set(point, g) == 0.0
    empty = ConstraintSet(BIN, Shape.segment(2), [
        LinearConstraint((0, 0, 0, 1), 0.0, "=="),
        LinearConstraint((0, 0, 0, -1), -0.2, "<="),  # mass(11) >= 0.2
    ])
    with pytest.raises(EmptySystemError):
        tv_distance_to_set(PatternDistribution.uniform(BIN, empty.shape), empty)


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


def _random_factor(rng, q, window):
    """A random 1-D factor over q symbols: a forbidden set, a 0/1 cap, or
    (binary, window 2) one or two general `<=` rows, whose relaxed test
    needs the distance LP."""
    m = q ** window
    kind = int(rng.integers(0, 3 if (q, window) == (2, 2) else 2))
    if kind == 2:
        rows = [LinearConstraint(rng.choice([0.0, 0.5, 1.0], size=m),
                                 round(float(rng.uniform(0.2, 0.7)), 2))
                for _ in range(int(rng.integers(1, 3)))]
    else:
        ind = np.zeros(m)
        ind[rng.choice(m, size=int(rng.integers(1, max(2, m // 3))), replace=False)] = 1.0
        bound = 0.0 if kind == 0 else float(rng.choice([0.1, 0.2, 0.25, 0.3, 0.5]))
        rows = [LinearConstraint(ind, bound, "==" if kind == 0 else "<=")]
    return ConstraintSet(Alphabet.of_size(q), Shape.segment(window), tuple(rows))


def test_slab_shift_merge_matches_exhaustive(monkeypatch):
    # cyclic d >= 2 counts merge the states after the first slab (row 0 in
    # 2-D, the first n^(d-1) cells in general) under its cyclic shifts;
    # `count_exhaustive` does not use the transfer.  Per geometry (dim, q,
    # n), mode and eps: a window-2 and a window-3 system, and one with a
    # window-1 factor: a strict product with window 1 along one random axis,
    # or a weak product of window 1, where the merge applies only if the
    # first slab is still read after it
    rng = np.random.default_rng(2804)
    merged = skipped = nonzero = 0
    for dim, q, n in ((2, 2, 3), (2, 2, 4), (2, 3, 3), (3, 2, 2), (3, 3, 2)):
        for mode in ("strict", "weak"):
            for eps in (0.0, 0.05):
                for variant in ("window 2", "window 3", "window 1"):
                    if variant == "window 1" and mode == "strict":
                        windows = [int(w) for w in rng.integers(2, 4, size=dim)]
                        windows[int(rng.integers(0, dim))] = 1
                    else:
                        windows = [int(variant[-1])] * dim
                    if mode == "weak":
                        system = axial_product(_random_factor(rng, q, windows[0]), dim, "weak")
                    else:
                        system = AxialSystem(tuple(_random_factor(rng, q, w) for w in windows),
                                             dim, "strict")
                    slab = scs_model._Transfer(n, system, eps).slab
                    merged += slab == n ** (dim - 1)
                    skipped += slab == 0
                    want = count_exhaustive(n, system, eps)
                    assert count_admissible(n, system, eps) == want, \
                        f"dim {dim} q {q} n {n} {mode} eps {eps} windows {windows}"
                    nonzero += want > 0
    assert merged + skipped == 60 and merged >= 40 and skipped >= 5 and nonzero >= 40
    # a count whose unmerged layers outgrow a lowered state limit: the
    # coded transfer behind `find_admissible_word` still keeps every head
    # and trips the guard; the merged count stays under it
    weak = axial_product(rll_constraint(1, 0.2), 2, "weak")
    want = count_exhaustive(4, weak)
    monkeypatch.setattr(scs_model, "MAX_STATE_BITS", 9)
    with pytest.raises(SizeGuardError, match="states"):
        find_admissible_word(4, weak)
    assert count_admissible(4, weak) == want == 26_615


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


# The two-row polytopes of the benchmark's count-relaxed workload
# (bench/specs.py GAMMA_W2, GAMMA_W3).
GAMMA_W2 = _rows(([0, 0.5, 0.5, 1], 0.4), ([0, 0, 0, 1], 0.15))
GAMMA_W3 = _rows(([0, 0, 0, 0.5, 0, 0.5, 0.5, 1], 0.3), ([0, 0, 0, 0, 0, 0, 0, 1], 0.05),
                 window=3)


def test_relaxed_screen_matches_exhaustive():
    # at eps > 0 a final type is first tested against Γ's exact rows, which
    # include the rows the prune leaves out of the state: an == row with a
    # nonzero bound and a row with a negative coefficient
    cap11 = LinearConstraint(np.array([0.0, 0.0, 0.0, 1.0]), 0.15)
    equal = ConstraintSet(BIN, Shape.segment(2), (
        LinearConstraint(np.array([0.0, 0.5, 0.5, 1.0]), 0.25, "=="), cap11))
    signed = ConstraintSet(BIN, Shape.segment(2), (
        LinearConstraint(np.array([-1.0, 0.0, 0.0, 1.0]), -0.3), cap11))
    cases = [(equal, (8, 12)), (signed, (8, 12)),
             (GAMMA_W2, (7, 10, 12)), (GAMMA_W3, (7, 10, 12)),
             (axial_product(GAMMA_W2, 2, "weak"), (3, 4))]
    for system, sides in cases:
        for eps in (0.02, 0.05):
            for n in sides:
                assert count_admissible(n, system, eps) == count_exhaustive(n, system, eps), \
                    (system, n, eps)


def test_relaxed_count_solves_lp_only_outside_gamma(monkeypatch):
    # types inside Γ settle in exact integers; only the few outside it
    # reach the distance LP
    calls = [0]
    solve = scs_model.solve_lp

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(scs_model, "solve_lp", counted)
    assert count_admissible(12, GAMMA_W3, 0.02) == 1412
    assert calls[0] == 0
    assert count_admissible(12, GAMMA_W2, 0.02) == 1382
    assert 0 < calls[0] <= 5


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
    # a prefix holds symbols of the alphabet and fits in the word
    for prefix in ([2], [-1], [0.5], [0] * 6):
        with pytest.raises(ValidationError, match="prefix"):
            find_admissible_word(5, g, prefix=prefix)


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


def _window2_system(rng, dim, alphabet=BIN, mode=None):
    """A nonempty window-2 polytope with signed coefficients, which also
    charge the pattern 00, so the first admissible word is often not all
    zeros; in 2-D its axial product, strict or weak at random unless
    `mode` names one."""
    while True:
        rows = [LinearConstraint(tuple(rng.uniform(-0.5, 1.0, size=alphabet.size ** 2)),
                                 float(rng.uniform(0.0, 0.5)), "<=")
                for _ in range(int(rng.integers(1, 3)))]
        gamma = ConstraintSet(alphabet, Shape.segment(2), rows)
        try:
            tv_distance_to_set(PatternDistribution.uniform(alphabet, gamma.shape), gamma)
        except EmptySystemError:
            continue
        if dim == 1:
            return gamma
        if mode is None:
            mode = "strict" if rng.integers(0, 2) else "weak"
        return axial_product(gamma, 2, mode)


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
    # cases whose frontiers each carry several statistics vectors, where
    # the word that reaches a state first in the transfer's order is not
    # always the lexicographically first: (seed, alphabet, dim, side, eps,
    # mode, prefix)
    tri = Alphabet.of_size(3)
    cases = [(1, BIN, 1, 10, 0.05, None, []), (5, BIN, 1, 10, 0.05, None, [0, 1]),
             (7, BIN, 1, 10, 0.05, None, []),
             (1, BIN, 2, 4, 0.0, "weak", []), (3, BIN, 2, 4, 0.0, "weak", []),
             (5, BIN, 2, 4, 0.0, "weak", [0, 0, 0]),
             (1, tri, 1, 6, 0.0, None, []), (11, tri, 1, 6, 0.0, None, [0]),
             (13, tri, 1, 6, 0.05, None, []), (5, tri, 1, 6, 0.05, None, [0])]
    for seed, alphabet, dim, n, eps, mode, prefix in cases:
        system = _window2_system(np.random.default_rng(seed), dim, alphabet, mode)
        got = find_admissible_word(n, system, eps, prefix=prefix)
        want = _first_admissible(n, system, dim, eps, prefix)
        assert want is not None, f"seed {seed}"
        assert got is not None and np.array_equal(got.cells, want.cells), f"seed {seed}"
    empty = fully_constrained(BIN, Shape.segment(1), [(0,), (1,)])
    assert _first_admissible(3, empty, 1, 0.0) is None
    assert find_admissible_word(3, empty) is None


def test_find_admissible_word_first_in_two_dimensions_at_side_4():
    # 4 x 4 arrays, past the 3 x 3 cases above, each behind a prefix: a
    # strict and a weak product whose first words mix zeros and ones, and
    # a strict one with no admissible word after its prefix
    for seed, prefix in ((15, [0, 1]), (22, [0, 0, 1, 1]), (10, [0, 0, 1, 1])):
        system = _window2_system(np.random.default_rng(seed), 2)
        got = find_admissible_word(4, system, prefix=prefix)
        want = _first_admissible(4, system, 2, 0.0, prefix)
        if want is None:
            assert got is None, f"seed {seed}"
        else:
            assert got is not None and np.array_equal(got.cells, want.cells), f"seed {seed}"


def test_count_exceeds_int64():
    # the Lucas number L_100: counts are Python ints, never int64 or float64
    count = count_admissible(100, rll_constraint(1, 0.0))
    assert count == 792070839848372253127
    assert count > 2 ** 63


def test_two_dimensional_counts_pinned():
    # n = 5: values the word-by-word search confirmed in minutes; weak
    # n = 6 and strict n = 7: values `_row_transfer_count` confirmed, but
    # in 10 and 14 s on a 2-core machine, too slow to rerun here; weak
    # n = 7: the value the counter gave before it merged the first row's
    # shifts, in 3.2-5.1 s
    factor = rll_constraint(1, 0.1)
    assert count_admissible(5, axial_product(factor, 2, "strict")) == 1_128_256
    assert count_admissible(5, axial_product(factor, 2, "weak")) == 2_632_486
    assert count_admissible(6, axial_product(factor, 2, "weak")) == 2_290_551_592
    assert count_admissible(7, axial_product(factor, 2, "strict")) == 2_101_278_955_329
    assert count_admissible(7, axial_product(factor, 2, "weak")) == 5_921_614_769_309
    hard_squares = axial_product(rll_constraint(1, 0.0), 2)
    assert count_admissible(6, hard_squares) == 2_406_862


def _row_transfer_count(n, cap, accept):
    """Cyclic n x n binary arrays, counted row by row without `semicap`.
    A state is (first row, current row, horizontal 11 total, vertical 11
    total), and a total above `cap` drops the state; the vertical wrap
    from the last row back to the first is closed at the end, and
    accept(h, v) tests the full totals.  Counts stay below 2^(n^2), exact
    in int64 for n <= 7."""
    rows = np.arange(1 << n)
    ones = np.array([bin(r).count("1") for r in range(1 << n)])
    rotated = ((rows << 1) | (rows >> (n - 1))) & ((1 << n) - 1)
    h = ones[rows & rotated]                          # horizontal 11 windows of a row
    v = ones[rows[:, None] & rows[None, :]]           # vertical 11 windows between two rows
    layer = np.zeros((len(rows), len(rows), cap + 1, cap + 1), dtype=np.int64)
    for r in rows[h <= cap]:
        layer[r, r, h[r], 0] = 1
    for _ in range(n - 1):
        nxt = np.zeros_like(layer)
        for dh in range(cap + 1):
            for dv in range(cap + 1):
                moves = ((v == dv) & (h[None, :] == dh)).astype(np.int64)
                moved = np.einsum("frhv,rs->fshv", layer, moves)
                nxt[:, :, dh:, dv:] += moved[:, :, :cap + 1 - dh, :cap + 1 - dv]
        layer = nxt
    total = 0
    for dh in range(cap + 1):
        for dv in range(cap + 1):
            for wrap in range(n + 1):
                if accept(dh, dv + wrap):
                    total += int(layer[:, :, dh, dv][v == wrap].sum())
    return total


def _hard_square_count(n, cyclic):
    """n x n binary arrays with no two ones adjacent along a row or a
    column, without `semicap`: the row transfer matrix T of compatible
    rows over Python ints, trace(T^n) when cyclic, else the sum of
    T^(n-1) over the allowed rows."""
    rows = range(1 << n)
    mask = (1 << n) - 1
    shifted = [((r << 1) | (r >> (n - 1))) & mask if cyclic else (r << 1) & mask for r in rows]
    allowed = [r & s == 0 for r, s in zip(rows, shifted)]
    t = np.array([[int(allowed[r] and allowed[s] and r & s == 0) for s in rows] for r in rows],
                 dtype=object)
    power = np.identity(len(rows), dtype=object)
    for _ in range(n if cyclic else n - 1):
        power = power @ t
    if cyclic:
        return int(np.trace(power))
    ok = np.array([int(a) for a in allowed], dtype=object)
    return int(ok @ power @ ok)


# cyclic 2-D rll(1, 0.1) past what count_exhaustive enumerates: (strict, weak)
RLL_1_01_2D = {4: (3_783, 9_127), 5: (1_128_256, 2_632_486)}


def test_two_dimensional_counts_match_row_transfer_oracle():
    factor = rll_constraint(1, 0.1)
    for n, (strict, weak) in RLL_1_01_2D.items():
        # strict: at most a tenth of each axis's n^2 windows read 11;
        # weak: at most a tenth of all 2 n^2
        cap, weak_cap = n * n // 10, 2 * n * n // 10
        assert _row_transfer_count(n, cap, lambda a, b: a <= cap and b <= cap) == strict
        assert _row_transfer_count(n, weak_cap, lambda a, b: a + b <= weak_cap) == weak
        assert count_admissible(n, axial_product(factor, 2, "strict")) == strict
        assert count_admissible(n, axial_product(factor, 2, "weak")) == weak
    # strict n = 6, whose oracle run is short enough to repeat
    assert _row_transfer_count(6, 3, lambda a, b: a <= 3 and b <= 3) == 903_663_466
    assert count_admissible(6, axial_product(factor, 2, "strict")) == 903_663_466
    hard_squares = axial_product(rll_constraint(1, 0.0), 2)
    assert _row_transfer_count(5, 0, lambda a, b: a == b == 0) == 25_531
    assert _hard_square_count(5, cyclic=True) == count_admissible(5, hard_squares) == 25_531
    # hard squares up to n = 8; their row-transfer entries stay below 47^8,
    # exact in int64 at n = 8 too, and the object-matrix oracle, whose
    # products grow as 2^(3n), stops at n = 7
    for n, want in ((6, 2_406_862), (7, 464_483_559), (8, 213_256_442_503)):
        assert _row_transfer_count(n, 0, lambda a, b: a == b == 0) == want
        assert count_admissible(n, hard_squares) == want
        if n <= 7:
            assert _hard_square_count(n, cyclic=True) == want
    assert (_hard_square_count(4, cyclic=False)
            == count_admissible_noncyclic(4, hard_squares) == 1_234)


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


@pytest.mark.parametrize("side, system, eps", [
    (30, rll_constraint(2, 0.5), 0.0),
    (12, rll_constraint(1, 0.3), 0.05),
    (4, axial_product(rll_constraint(1, 0.2), 2, "weak"), 0.0),
])
def test_transfer_layer_guard_is_exact(monkeypatch, side, system, eps):
    # the layer guard counts (frontier, statistics) states, not frontier
    # groups, and trips before a layer stores one state past the limit
    tr = scs_model._Transfer(side, system, eps)
    steps, sizes = tr.steps, []
    for t in range(len(steps)):
        tr.steps = steps[:t + 1]
        sizes.append(sum(map(len, tr._transfer()[0].values())))
    tr.steps = steps
    total = tr.count()
    bits = (max(sizes) - 1).bit_length()          # least limit that holds them all
    monkeypatch.setattr(scs_model, "MAX_STATE_BITS", bits)
    assert tr.count() == total
    monkeypatch.setattr(scs_model, "MAX_STATE_BITS", bits - 1)
    limit = 1 << (bits - 1)
    first = next(t for t, size in enumerate(sizes) if size > limit)
    with pytest.raises(SizeGuardError, match=f"layer {first} exceeds") as info:
        tr.count()
    # the layer being built when the guard trips holds exactly the limit
    tb = info.tb
    while tb.tb_frame.f_code.co_name != "_transfer":
        tb = tb.tb_next
    local = tb.tb_frame.f_locals
    held = sum(map(len, local["nxt"].values()))
    if local["nxt"].get(local["succ"]) is not local["target"]:
        held += len(local["target"])
    assert held == limit
