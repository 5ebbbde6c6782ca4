"""Sampling, concentration experiments, the bound-chain report, and
cyclic/non-cyclic count comparisons."""
import dataclasses
import math

import numpy as np
import pytest

from semicap.lattice_core import (
    Alphabet,
    Shape,
    SiteProductMeasure,
    ValidationError,
    Word,
    _pattern_counts,
    averaged_marginal,
    empirical_distribution,
)
from semicap.scs_model import (
    ConstraintSet,
    LinearConstraint,
    _probs_distance,
    axial_product,
    count_admissible,
    count_exhaustive,
    fully_constrained,
    is_admissible,
    rll_constraint,
    tv_distance_to_set,
)
from semicap.indentropy import PeriodicProductMeasure, hind_fixed_n
from semicap import validation
from semicap.validation import (
    _BLOCK_CELLS,
    SplitMix64,
    _splitmix53,
    concentration_check,
    cyclic_vs_noncyclic,
    hasse_report,
    sample_word,
)

BIN = Alphabet.binary()


# ---------------------------------------------------------------------------
# The pinned generator
# ---------------------------------------------------------------------------

def test_splitmix64_reference_stream():
    # first outputs for seed 0, fixed for all time (cross-language check)
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_float_range():
    rng = SplitMix64(0)
    first = 0xE220A8397B1DCDAF
    assert SplitMix64(0).next_float() == (first >> 11) * 2.0 ** -53
    vals = [rng.next_float() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_splitmix64_seed_wraps():
    # seeding is mod 2^64; equal states give equal streams
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()
    assert SplitMix64(-1).next_u64() == SplitMix64(2 ** 64 - 1).next_u64()


# ---------------------------------------------------------------------------
# Word sampling
# ---------------------------------------------------------------------------

def test_sample_word_deterministic():
    mu = PeriodicProductMeasure.iid(BIN, [0.5, 0.5])
    a = sample_word(mu, seed=42, side=16)
    b = sample_word(mu, seed=42, side=16)
    assert np.array_equal(a.cells, b.cells)
    c = sample_word(mu, seed=43, side=16)
    assert not np.array_equal(a.cells, c.cells)


def test_sample_word_point_masses():
    # deterministic sites force the word outright
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    mu = SiteProductMeasure(BIN, 1, 4, rows)
    for seed in range(5):
        assert list(sample_word(mu, seed).cells) == [0, 1, 0, 0]


def test_sample_word_frequencies():
    mu = PeriodicProductMeasure.iid(BIN, [0.25, 0.75])
    w = sample_word(mu, seed=7, side=4000)
    assert np.mean(w.cells) == pytest.approx(0.75, abs=0.03)


def test_sample_word_covers_alphabet():
    tri = Alphabet.of_size(3)
    mu = PeriodicProductMeasure.iid(tri, [1 / 3] * 3)
    w = sample_word(mu, seed=0, side=600)
    counts = np.bincount(w.cells, minlength=3)
    assert counts.min() > 120  # each symbol near its expected 200


def _scalar_word(mu, seed):
    """The reference draw: one `next_float` per cell in row-major order,
    inverse CDF by `searchsorted`, clamped to q - 1."""
    rng = SplitMix64(seed)
    q = mu.alphabet.size
    cells = [min(int(np.searchsorted(row, rng.next_float(), side="right")), q - 1)
             for row in np.cumsum(mu.site_dists, axis=1)]
    return np.array(cells).reshape((mu.side,) * mu.dim)


def _seed_with_first_output(out: int) -> int:
    """The seed whose first `next_u64` is `out`: the mix13 steps are
    invertible (odd multipliers, xor-shifts), so run them backwards."""
    mask = (1 << 64) - 1

    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(out, 31)
    z = unshift(z * pow(SplitMix64.MIX2, -1, 1 << 64) & mask, 27)
    z = unshift(z * pow(SplitMix64.MIX1, -1, 1 << 64) & mask, 30)
    return (z - SplitMix64.GAMMA) & mask


def test_splitmix53_rows_are_the_seeds_streams():
    # the states of seeds -1 and 2^64 - 1 wrap on the first draw
    seeds = (0, -1, 2 ** 63 + 5, 2 ** 64 - 1)
    k = _splitmix53(np.array([s % 2 ** 64 for s in seeds], dtype=np.uint64), 40)
    assert k.shape == (4, 40) and k.dtype == np.uint64
    for row, seed in zip(k, seeds):
        ref = SplitMix64(seed)
        assert row.tolist() == [ref.next_u64() >> 11 for _ in range(40)]
        ref = SplitMix64(seed)
        assert (row * 2.0 ** -53).tolist() == [ref.next_float() for _ in range(40)]
    assert _splitmix53(np.array([5, 6], dtype=np.uint64), 0).shape == (2, 0)


def test_sample_word_matches_scalar_stream():
    rng = np.random.default_rng(3)
    seeds = (0, 1, 987654321, 2 ** 63, 2 ** 63 + 977, 2 ** 64 - 1)
    for q in (2, 3, 4):
        alpha = Alphabet.of_size(q)
        for period in (1, 2, 3):
            rows = rng.dirichlet(np.ones(q), size=period)
            rows[-1, :-1] += rows[-1, -1] / (q - 1)  # a zero-mass last symbol
            rows[-1, -1] = 0.0
            mu = PeriodicProductMeasure(alpha, period, rows)
            for seed in seeds:
                w = sample_word(mu, seed, side=30 * period)
                assert w.cells.dtype == np.uint8
                assert np.array_equal(w.cells, _scalar_word(mu.tile(30 * period), seed))
    mu = SiteProductMeasure(Alphabet.of_size(3), 2, 7,
                            rng.dirichlet(np.ones(3), size=49))
    for seed in seeds:
        w = sample_word(mu, seed)
        assert w.cells.shape == (7, 7)
        assert np.array_equal(w.cells, _scalar_word(mu, seed))


def test_sample_word_clamps_short_rows():
    # rows may sum to 1 - 5e-10; a draw above the total lands on q - 1
    top = _seed_with_first_output((1 << 64) - 1)
    assert SplitMix64(top).next_float() == 1.0 - 2.0 ** -53
    for rows in ([[0.5, 0.5 - 5e-10]], [[0.3, 0.7 - 5e-10, 0.0]]):
        q = len(rows[0])
        mu = SiteProductMeasure(Alphabet.of_size(q), 1, 1, rows)
        assert sample_word(mu, top).cells.tolist() == [q - 1]
        assert _scalar_word(mu, top).tolist() == [q - 1]


def test_sample_word_rejects_side_of_site_measure():
    # one rule for every measure: its own side, or a multiple of a 1-D
    # measure's side, which tiles the site rows around the longer cycle
    rows = np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
    mu = SiteProductMeasure(BIN, 1, 3, rows)
    assert sample_word(mu, 0, side=3).side == 3
    for seed in (0, 7, 2**40 + 1):
        w = sample_word(mu, seed, side=12)
        assert w.side == 12
        want = sample_word(SiteProductMeasure(BIN, 1, 12, np.tile(rows, (4, 1))), seed)
        assert np.array_equal(w.cells, want.cells)
    with pytest.raises(ValidationError, match="side"):
        sample_word(mu, 0, side=10)
    square = SiteProductMeasure.uniform(BIN, 2, 3)
    assert sample_word(square, 0, side=3).cells.shape == (3, 3)
    with pytest.raises(ValidationError):
        sample_word(square, 0, side=6)


def test_sample_word_of_periodic_measure():
    # a periodic measure is a site-product measure of side its period
    mu = PeriodicProductMeasure(BIN, 2, np.array([[0.5, 0.5], [0.1, 0.9]]))
    assert isinstance(mu, SiteProductMeasure) and (mu.period, mu.side) == (2, 2)
    assert np.array_equal(sample_word(mu, seed=5).cells, sample_word(mu, 5, side=2).cells)
    assert sample_word(mu, seed=5).side == 2
    assert np.array_equal(sample_word(mu, 5, side=8).cells,
                          sample_word(mu.tile(8), seed=5).cells)
    with pytest.raises(ValidationError):
        sample_word(mu, 0, side=5)
    with pytest.raises(ValidationError):
        sample_word([[0.5, 0.5]], seed=0)


# ---------------------------------------------------------------------------
# Concentration
# ---------------------------------------------------------------------------

def test_concentration_point_mass_always_inside():
    # the all-zeros point mass satisfies any ones-capping system exactly
    gamma = rll_constraint(2, 0.05)
    mu = PeriodicProductMeasure.iid(BIN, [1.0, 0.0])
    rep = concentration_check(mu, gamma, [0.01, 0.05], [6, 9], 40, seed=0)
    assert rep.base_distance == pytest.approx(0.0)
    assert rep.base_feasible
    assert np.all(rep.fractions == 1.0)
    assert rep.monotone_in_side == (True, True)


def test_concentration_infeasible_base_is_flagged():
    # a fair coin violates a 5% cap on triple ones (its rate is 1/8)
    gamma = rll_constraint(2, 0.05)
    mu = PeriodicProductMeasure.iid(BIN, [0.5, 0.5])
    rep = concentration_check(mu, gamma, [0.01], [9, 18], 60, seed=0)
    assert not rep.base_feasible
    assert rep.base_distance == pytest.approx(1 / 8 - 0.05, abs=1e-12)
    # samples concentrate around the *measure*, so they leave the system
    assert rep.fractions[0, -1] <= rep.fractions[0, 0] + 0.1


def test_concentration_monotone_in_eps():
    gamma = rll_constraint(1, 0.2)
    mu = PeriodicProductMeasure.iid(BIN, [0.6, 0.4])
    rep = concentration_check(mu, gamma, [0.02, 0.1, 0.9], [8, 12], 80, seed=1)
    # the same words are reused per eps, so fractions are nondecreasing
    for j in range(len(rep.sides)):
        col = rep.fractions[:, j]
        assert all(b >= a for a, b in zip(col, col[1:]))
    # the worst case (all ones) sits at distance 0.8, inside the 0.9 ball
    assert np.all(rep.fractions[-1] == 1.0)


def test_concentration_tightens_with_side():
    # an interior measure: fractions should grow toward 1 as words lengthen
    gamma = rll_constraint(2, 0.05)
    res = hind_fixed_n(gamma, 3, restarts=10, seed=0)
    rep = concentration_check(res.measure, gamma, [0.05],
                              [9, 33, 90], 120, seed=0)
    fr = rep.fractions[0]
    assert fr[-1] >= fr[0]
    assert fr[-1] >= 0.8
    assert rep.monotone_in_side[0]
    assert rep.decay_estimates.shape == rep.fractions.shape


def test_concentration_determinism_and_lookup():
    gamma = rll_constraint(1, 0.2)
    mu = PeriodicProductMeasure.iid(BIN, [0.6, 0.4])
    a = concentration_check(mu, gamma, [0.1], [8], 50, seed=3)
    b = concentration_check(mu, gamma, [0.1], [8], 50, seed=3)
    assert np.array_equal(a.fractions, b.fractions)
    assert a.fraction(0.1, 8) == a.fractions[0, 0]


def test_concentration_rejects_bad_sides():
    gamma = rll_constraint(2, 0.05)
    mu = PeriodicProductMeasure(BIN, 3, np.tile([0.5, 0.5], (3, 1)))
    with pytest.raises(ValidationError):
        concentration_check(mu, gamma, [0.05], [10], 20, seed=0)  # 10 % 3 != 0
    with pytest.raises(ValidationError):
        concentration_check(mu, gamma, [0.05], [2], 20, seed=0)  # below window


def test_concentration_rejects_empty_grids_and_no_trials():
    gamma = rll_constraint(2, 0.05)
    mu = PeriodicProductMeasure.iid(BIN, [0.5, 0.5])
    for eps, sides, trials in (([], [9], 20), ([0.05], [], 20), ([0.05], [9], 0)):
        with pytest.raises(ValidationError):
            concentration_check(mu, gamma, eps, sides, trials, seed=0)


@pytest.mark.parametrize("sides, trials", [([30.9, 60], 5), ([30], 2.5), ([30, 30], 5)],
                         ids=["non-integral side", "non-integral trials", "duplicate sides"])
def test_concentration_rejects_malformed_sides_and_trials(sides, trials):
    mu = PeriodicProductMeasure.iid(BIN, [0.6, 0.4])
    with pytest.raises(ValidationError):
        concentration_check(mu, rll_constraint(2, 0.05), [0.05], sides, trials, seed=0)


def test_concentration_rejects_axial_system():
    mu = PeriodicProductMeasure.iid(BIN, [0.6, 0.4])
    with pytest.raises(ValidationError, match="ConstraintSet"):
        concentration_check(mu, axial_product(rll_constraint(1, 0.1), 2), [0.05], [10], 5, 0)


def test_concentration_rejects_other_alphabet():
    mu = PeriodicProductMeasure.iid(Alphabet.of_size(3), [0.5, 0.3, 0.2])
    with pytest.raises(ValidationError, match="alphabet"):
        concentration_check(mu, rll_constraint(1, 0.1), [0.05], [10], 5, 0)


def _concentration_reference(mu, gamma, eps_list, sides, trials, seed):
    """concentration_check's fractions, base distance and monotone flags,
    word by word: sample_word -> empirical_distribution ->
    tv_distance_to_set."""
    eps_list, sides = sorted(eps_list), sorted(sides)
    fractions = np.zeros((len(eps_list), len(sides)))
    for j, n in enumerate(sides):
        for t in range(trials):
            w = sample_word(mu, seed ^ (j * trials + t), n)
            dist = tv_distance_to_set(empirical_distribution(w, gamma.shape), gamma)
            fractions[:, j] += [dist <= eps + 1e-12 for eps in eps_list]
    fractions /= trials
    base = averaged_marginal(mu.tile(sides[0]), gamma.shape)
    monotone = tuple(bool(np.all(np.diff(row) >= -1e-12)) for row in fractions)
    return fractions, tv_distance_to_set(base, gamma), monotone


_TERNARY = Alphabet.of_size(3)
_CONCENTRATION_CASES = {
    "rll(2, .05)": (PeriodicProductMeasure.iid(BIN, [0.63, 0.37]),
                    rll_constraint(2, 0.05), [0.01, 0.03], [30, 90]),
    "rll(1, 0)": (PeriodicProductMeasure.iid(BIN, [0.8, 0.2]),
                  rll_constraint(1, 0.0), [0.0, 0.05], [12, 40]),
    "forbidden 11": (PeriodicProductMeasure.iid(BIN, [0.8, 0.2]),
                     fully_constrained(BIN, Shape.segment(2), [(1, 1)]),
                     [0.0, 0.05], [12, 40]),
    "two rows": (PeriodicProductMeasure(BIN, 2, np.array([[0.7, 0.3], [0.5, 0.5]])),
                 ConstraintSet(BIN, Shape.segment(2), (
                     LinearConstraint(np.array([0.0, 0.0, 0.0, 1.0]), 0.1),
                     LinearConstraint(np.array([0.0, 1.0, 1.0, 0.0]), 0.5))),
                 [0.01, 0.05], [10, 40]),
    "ternary cap": (PeriodicProductMeasure.iid(_TERNARY, [0.5, 0.3, 0.2]),
                    ConstraintSet(_TERNARY, Shape.segment(2), (LinearConstraint(
                        np.array([0.0, 0, 1, 0, 0, 1, 1, 0, 1]), 0.2),)),
                    [0.01, 0.04], [20, 60]),
    # a cap on the four triples with two ones or more
    "wide cap": (PeriodicProductMeasure.iid(BIN, [0.55, 0.45]),
                 ConstraintSet(BIN, Shape.segment(3), (LinearConstraint(
                     np.array([0.0, 0, 0, 1, 0, 1, 1, 1]), 0.4),)),
                 [0.01, 0.04], [30, 90]),
}


@pytest.mark.parametrize("seed, extra_side, trials", [
    (0, None, 25), (7, None, 25), (2 ** 63 + 5, None, 25), (-5, None, 25),
    # side 600 scores blocks of 27 trials, the last of them partial
    (3, 600, 40),
    # a side above the block budget scores one trial per block
    (11, _BLOCK_CELLS + 2, 3),
], ids=["0", "7", str(2 ** 63 + 5), "negative seed", "partial last block",
        "side above the block"])
@pytest.mark.parametrize("case", sorted(_CONCENTRATION_CASES))
def test_concentration_matches_per_word_reference(case, seed, extra_side, trials):
    mu, gamma, eps_list, sides = _CONCENTRATION_CASES[case]
    if extra_side is not None:
        sides = sides + [extra_side]
    rep = concentration_check(mu, gamma, eps_list, sides, trials, seed)
    fractions, base_distance, monotone = _concentration_reference(
        mu, gamma, eps_list, sides, trials, seed)
    assert rep.fractions.tobytes() == fractions.tobytes()
    assert rep.base_distance == base_distance
    assert rep.monotone_in_side == monotone
    # every case counts some words inside and some outside
    assert 0.0 < rep.fractions.mean() < 1.0


def test_concentration_multi_pattern_cap_matches_reference():
    # the stacked distance of a cap charging several patterns rounds its
    # exact mass once, where the reference sums rounded rates, and still
    # makes the same inside decisions over many words
    mu, gamma, eps_list, sides = _CONCENTRATION_CASES["wide cap"]
    assert gamma.cap[0].sum() == 4
    rep = concentration_check(mu, gamma, eps_list, sides, 240, 9)
    fractions, base_distance, monotone = _concentration_reference(
        mu, gamma, eps_list, sides, 240, 9)
    assert rep.fractions.tobytes() == fractions.tobytes()
    assert rep.base_distance == base_distance
    assert rep.monotone_in_side == monotone
    assert 0.0 < rep.fractions.mean() < 1.0


@pytest.mark.parametrize("k, p", [(0, 0.3), (1, 0.1), (2, 0.05), (2, 0.01), (3, 0.02)])
def test_stacked_cap_distance_is_per_word_closed_form(k, p):
    # on a one-pattern cap such as rll, each word's stacked distance is its
    # own _probs_distance(row / n), bit for bit
    gamma = rll_constraint(k, p)
    for n, theta in ((30, 0.6), (97, 0.45), (300, 0.37)):
        mu = PeriodicProductMeasure.iid(BIN, [1 - theta, theta]).tile(n)
        cells = validation._draw_cells(validation._thresholds(mu),
                                       np.arange(200, dtype=np.uint64), np.uint8)
        counts = _pattern_counts(cells, [gamma.shape], n, 2, gamma.npatterns)
        got = validation._count_distances(counts, n, gamma)
        want = np.array([_probs_distance(row / n, gamma) for row in counts])
        assert got.tobytes() == want.tobytes()
        assert (got > 0).any()


def test_concentration_cases_cover_distance_paths():
    cap = {k: g.cap for k, (_, g, _, _) in _CONCENTRATION_CASES.items()}
    assert cap["two rows"] is None                      # the LP
    assert cap["rll(1, 0)"][1] == cap["forbidden 11"][1] == 0.0
    assert cap["forbidden 11"][0].tolist() == [0.0, 0.0, 0.0, 1.0]
    assert all(c.sense == "==" for c in _CONCENTRATION_CASES["forbidden 11"][1].constraints)


def test_hind_fixed_n_rejects_negative_eps():
    with pytest.raises(ValidationError):
        hind_fixed_n(rll_constraint(1, 0.1), 3, -0.01, restarts=2)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -0.1])
def test_non_finite_eps_is_rejected(eps):
    # every entry point that takes eps checks it the same way
    gamma = rll_constraint(1, 0.2)
    with pytest.raises(ValidationError):
        hind_fixed_n(gamma, 3, eps, restarts=2)
    with pytest.raises(ValidationError):
        count_admissible(4, gamma, eps)
    with pytest.raises(ValidationError):
        count_exhaustive(4, gamma, eps)
    with pytest.raises(ValidationError):
        is_admissible(Word(BIN, np.array([0, 1, 0, 0])), gamma, eps)
    mu = PeriodicProductMeasure.iid(BIN, [0.6, 0.4])
    with pytest.raises(ValidationError):
        concentration_check(mu, rll_constraint(2, 0.05), [eps], [9], 5, 0)


# ---------------------------------------------------------------------------
# The bound-chain report
# ---------------------------------------------------------------------------

def test_hasse_free_system():
    # nothing actually constrained: every quantity collapses to one bit
    gamma = ConstraintSet(BIN, Shape.segment(2), (
        LinearConstraint(np.array([0.0, 0.0, 0.0, 1.0]), 1.0),))
    rep = hasse_report(gamma, 2, hind_sides=(2, 3), count_sides=(4, 6),
                       restarts=4, seed=0)
    for name in ("hind", "hind_lift", "capacity_1d", "best_lower_bound"):
        assert rep.value(name) == pytest.approx(1.0, abs=1e-7)
    assert all(holds for _, holds, _ in rep.edges)


def test_hasse_no_adjacent_ones():
    gamma = rll_constraint(1, 0.0)
    rep = hasse_report(gamma, 2, hind_sides=(2, 4), count_sides=(4, 6, 8),
                       restarts=8, seed=0)
    assert rep.value("hind") == pytest.approx(0.5, abs=1e-9)
    golden = math.log2((1 + math.sqrt(5)) / 2)
    assert rep.value("capacity_1d") == pytest.approx(golden, abs=1e-5)
    assert rep.value("hind") <= rep.value("capacity_1d")
    assert rep.value("best_lower_bound") >= 0.5 - 1e-12
    assert all(holds for _, holds, _ in rep.edges)
    # counting rows cover the requested sides with sane rates
    assert tuple(r.side for r in rep.count_rows) == (4, 6, 8)
    for row in rep.count_rows:
        assert 0.0 < row.rate <= 1.0


def test_hasse_soft_cap_values():
    gamma = rll_constraint(2, 0.05)
    rep = hasse_report(gamma, 3, hind_sides=(3,), count_sides=(6,),
                       restarts=10, seed=0)
    assert rep.value("hind") == pytest.approx(0.94944, abs=5e-4)
    assert rep.value("capacity_1d") == pytest.approx(0.9759350654, abs=1e-6)
    assert rep.value("hind_lift") == pytest.approx(rep.value("hind"), abs=1e-12)
    assert rep.value("best_lower_bound") == rep.value("hind")
    assert rep.hind_measure is not None
    assert all(holds for _, holds, _ in rep.edges)
    names = [q.name for q in rep.quantities]
    assert "dimension_bound" in names
    provs = {q.name: q.provenance for q in rep.quantities}
    assert "hind_fixed_n" in provs["hind"]


def test_hasse_broken_chain_raises(monkeypatch):
    # a capacity below the product-measure bound breaks the first edge
    real = validation.capacity_1d
    monkeypatch.setattr(validation, "capacity_1d",
                        lambda gamma: dataclasses.replace(real(gamma), value=0.0))
    with pytest.raises(ValidationError,
                       match=r"inequality chain broken: hind <= capacity_1d violated"):
        hasse_report(rll_constraint(1, 0.0), 2, hind_sides=(2,), count_sides=(4,),
                     restarts=2)


def test_hasse_leaves_the_binary_prior_bound_out_on_larger_alphabets():
    # 1 + d(cap1 - 1) bounds binary systems only: at q = 3 it reads 1.90,
    # above this system's cap1 = 1.45, and the chain must not report it
    gamma = fully_constrained(Alphabet.of_size(3), Shape.segment(2), [(2, 2)])
    rep = hasse_report(gamma, 2, hind_sides=(2, 3), count_sides=(4,), restarts=2)
    names = [q.name for q in rep.quantities]
    assert names == ["hind", "hind_lift", "capacity_1d", "best_lower_bound"]
    assert [e[0] for e in rep.edges] == ["hind <= capacity_1d", "lift preserves rate"]
    assert all(holds for _, holds, _ in rep.edges)
    assert rep.value("best_lower_bound") == rep.value("hind")
    assert rep.value("hind") <= rep.value("capacity_1d") == pytest.approx(1.45, abs=1e-3)


def test_hasse_keeps_the_capacity_certificate():
    rep = hasse_report(rll_constraint(1, 0.0), 2, hind_sides=(2,), count_sides=(4,),
                       restarts=2)
    assert rep.capacity.converged
    assert rep.capacity.value == rep.value("capacity_1d")


# ---------------------------------------------------------------------------
# Cyclic vs non-cyclic counting
# ---------------------------------------------------------------------------

LUCAS = {4: 7, 5: 11, 6: 18, 7: 29, 8: 47}
FIB = {4: 8, 5: 13, 6: 21, 7: 34, 8: 55}          # F_{n+2}, linear words
HALF_OPEN = {4: 10, 5: 16, 6: 26, 7: 42, 8: 68}   # boundary windows relaxed


def test_cyclic_vs_noncyclic_tile_counts():
    gamma = rll_constraint(1, 0.0)
    rep = cyclic_vs_noncyclic(gamma, range(4, 9))
    assert rep.convention == "tile"
    for row in rep.rows:
        assert row.cyclic == LUCAS[row.side]
        assert row.noncyclic == FIB[row.side]
        assert row.contained
        assert row.gap == pytest.approx(
            (math.log2(row.noncyclic) - math.log2(row.cyclic)) / row.side)


def test_cyclic_vs_noncyclic_halfopen_counts():
    gamma = rll_constraint(1, 0.0)
    rep = cyclic_vs_noncyclic(gamma, range(4, 9), convention="halfopen")
    for row in rep.rows:
        assert row.cyclic == LUCAS[row.side]
        assert row.noncyclic == HALF_OPEN[row.side]
    assert rep.gap_decreasing


def test_cyclic_gap_monotonicity_windows():
    # the tile-convention gap dips once early; from side 5 it is monotone
    gamma = rll_constraint(1, 0.0)
    assert not cyclic_vs_noncyclic(gamma, range(4, 9)).gap_decreasing
    assert cyclic_vs_noncyclic(gamma, range(5, 10)).gap_decreasing


def test_cyclic_vs_noncyclic_gap_branches():
    # {00, 11} forbidden: no cyclic word at odd sides against two
    # non-cyclic ones, so the gap is inf there and does not decrease
    alternating = fully_constrained(BIN, Shape.segment(2), [(0, 0), (1, 1)])
    rep = cyclic_vs_noncyclic(alternating, range(4, 8))
    assert [(r.cyclic, r.noncyclic) for r in rep.rows] == [(2, 2), (0, 2), (2, 2), (0, 2)]
    assert [r.gap for r in rep.rows] == [0.0, math.inf, 0.0, math.inf]
    assert all(r.contained for r in rep.rows) and not rep.gap_decreasing
    # both symbols forbidden: no word either way, and the gap is 0
    empty = fully_constrained(BIN, Shape.segment(1), [(0,), (1,)])
    rep = cyclic_vs_noncyclic(empty, (3, 4))
    assert [(r.cyclic, r.noncyclic, r.gap) for r in rep.rows] == [(0, 0, 0.0)] * 2
    assert rep.gap_decreasing


def test_cyclic_vs_noncyclic_two_dimensional():
    gamma = rll_constraint(1, 0.0)
    rep = cyclic_vs_noncyclic(gamma, (3, 4), dim=2)
    assert rep.dim == 2
    counts = {r.side: (r.cyclic, r.noncyclic) for r in rep.rows}
    assert counts[3] == (34, 63)
    assert counts[4] == (743, 1234)
    assert all(r.contained for r in rep.rows)


def test_cyclic_vs_noncyclic_requires_hard_rows():
    with pytest.raises(ValidationError):
        cyclic_vs_noncyclic(rll_constraint(2, 0.05), (4, 5))


@pytest.mark.parametrize("sides, dim", [([4.5, 5], 1), ([3], 1.5)])
def test_cyclic_vs_noncyclic_rejects_fractional_sides_and_dimension(sides, dim):
    # a side of 4.5 is not counted as 4, and a dimension of 1.5 fails as bad
    # input, not as a TypeError inside the axial product
    with pytest.raises(ValidationError, match="side|dimension"):
        cyclic_vs_noncyclic(rll_constraint(1, 0.0), sides, dim=dim)
