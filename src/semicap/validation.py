"""Monte Carlo and cross-consistency checks.

Three kinds of evidence that the library's quantities hang together:

* `concentration_check` — sample words from a product measure and watch the
  fraction whose empirical window statistics fall within eps of the system
  grow with the word length (the large-deviations behaviour that makes the
  eps-relaxed capacity meaningful);
* `hasse_report` — assemble the computed quantities (product-measure bound,
  lift, dimension-interpolation bound, optimisation capacity, finite-side
  count rates) and assert every inequality that must hold between them;
* `cyclic_vs_noncyclic` — compare the two placement conventions and check
  the per-cell rate gap closes as the side grows.

Sampling uses a pinned generator (SplitMix64, below) so every reported
number is reproducible from its seed across platforms and languages.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semicap.lattice_core import (
    SiteProductMeasure,
    ValidationError,
    Word,
    _checked_eps,
    _pattern_counts,
    _whole,
    averaged_marginal,
    cell_dtype,
    empirical_distribution,
)
from semicap.capacity import (
    CapacityResult,
    CountRow,
    capacity_1d,
    elimeysch_lower_bound,
    internal_capacity_sequence,
)
from semicap.indentropy import hind_bound_report
from semicap.scs_model import (
    ConstraintSet,
    _probs_distance,
    axial_product,
    count_admissible,
    count_admissible_noncyclic,
    tv_distance_to_set,
)

__all__ = [
    "SplitMix64",
    "ConcentrationReport",
    "HasseQuantity",
    "HasseReport",
    "CyclicRow",
    "CyclicReport",
    "sample_word",
    "concentration_check",
    "hasse_report",
    "cyclic_vs_noncyclic",
]

_MASK64 = (1 << 64) - 1
# `concentration_check` scores at most this many cells (trials x side) per
# block, and a whole block at once, so that its temporaries stay small.
_BLOCK_CELLS = 1 << 14


class SplitMix64:
    """The SplitMix64 generator (Steele–Lea–Flood), pinned for
    reproducibility: state advances by the golden-ratio increment
    0x9E3779B97F4A7C15 and the output mixes with the Stafford "mix13"
    constants.  `next_float` takes the top 53 bits, so results are
    bit-identical on every platform.  The stacked kernel `_splitmix53`
    draws the same streams as numpy blocks; the scalar methods stay its
    reference.
    """

    GAMMA = 0x9E3779B97F4A7C15
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * self.MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * self.MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def _splitmix53(seeds: np.ndarray, n: int) -> np.ndarray:
    """The top 53 bits of the first n outputs of SplitMix64 for each seed
    of a uint64 stack, as an (S, n) uint64 array: entry (s, i) is
    `next_u64() >> 11` of the (i+1)-th call on `SplitMix64(seeds[s])`,
    whose state is seeds[s] + (i+1)·GAMMA mod 2^64.  uint64 array
    arithmetic wraps mod 2^64, which is the scalar form's masking; every
    operand is uint64, so no numpy version promotes to float."""
    z = np.add.outer(seeds, np.arange(1, n + 1, dtype=np.uint64) * np.uint64(SplitMix64.GAMMA))
    t = np.empty_like(z)
    for shift, mult in ((30, SplitMix64.MIX1), (27, SplitMix64.MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=t)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    z >>= np.uint64(11)
    return z


def sample_word(mu, seed: int, side: int | None = None) -> Word:
    """Draw one word from a product measure.

    `mu` is a SiteProductMeasure (a PeriodicProductMeasure is one).  The
    word has the measure's side, or, given a 1-D measure, any multiple
    `side` of it, around which `SiteProductMeasure.tile` repeats the rows.
    The cells, in row-major order, take one block of a SplitMix64 stream
    seeded with `seed` (cell i the i-th `next_float`), and each cell's
    symbol is the inverse CDF of its site row at its draw — equal seeds
    give bit-identical words everywhere.
    """
    if not isinstance(mu, SiteProductMeasure):
        raise ValidationError("expected a site-product measure")
    if side is not None and side != mu.side:
        mu = mu.tile(side)
    seeds = np.array([seed & _MASK64], dtype=np.uint64)
    cells = _draw_cells(_thresholds(mu), seeds, cell_dtype(mu.alphabet))
    return Word(mu.alphabet, cells.reshape((mu.side,) * mu.dim))


def _thresholds(mu: SiteProductMeasure) -> np.ndarray:
    """Each site row's cumulative masses c without the last, as the uint64
    thresholds ceil(c·2^53) on `_splitmix53`'s integers.  The symbol at
    draw u = k·2^-53 is the number of masses at or below u, and c <= u
    exactly when ceil(c·2^53) <= k (u is exact and k whole); dropping the
    last mass clamps the symbol to q-1 against rounding in the last sum
    (the row is nondecreasing)."""
    cums = np.cumsum(mu.site_dists, axis=1)[:, :-1]
    return np.ceil(cums * 2.0 ** 53).astype(np.uint64)


def _draw_cells(thresholds: np.ndarray, seeds: np.ndarray, dtype) -> np.ndarray:
    """The flat cells of `sample_word` at each seed of a uint64 stack, as
    an (S, ncells) array: cell i is the inverse CDF of site row i
    (`_thresholds`) at the i-th float of the seed's SplitMix64 stream."""
    k = _splitmix53(seeds, len(thresholds))
    cells = np.zeros(k.shape, dtype=dtype)
    for col in thresholds.T:
        cells += k >= col
    return cells


# ---------------------------------------------------------------------------
# Concentration of empirical statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    eps_list: tuple[float, ...]
    sides: tuple[int, ...]
    trials: int
    seed: int
    fractions: np.ndarray          # (len(eps_list), len(sides)) inside-eps fractions
    base_distance: float           # distance of the measure's averaged statistics
    base_feasible: bool            # base_distance < min eps
    decay_estimates: np.ndarray    # -ln(outside fraction)/side, same shape
    monotone_in_side: tuple[bool, ...]  # per eps

    def fraction(self, eps: float, side: int) -> float:
        return float(
            self.fractions[self.eps_list.index(eps), self.sides.index(side)]
        )


def concentration_check(mu, gamma: ConstraintSet,
                        eps_list: Sequence[float], sides: Sequence[int],
                        trials: int, seed: int) -> ConcentrationReport:
    """Fraction of sampled words within eps of the system, per (eps, side).

    For each side, `trials` words are drawn with per-trial seeds
    seed XOR (global trial index); the same words are reused for every eps
    (one distance computation each), which makes the fraction nondecreasing
    in eps by construction.  A word counts as inside when its distance
    satisfies dist <= eps, inclusively, with a 1e-12 slack for rounding.
    Sides must be distinct multiples of the 1-D measure's side, at least
    the window (`SiteProductMeasure.tile`), and trials a whole number.

    Each side tiles the measure and takes its site rows' inverse-CDF
    thresholds once.  It then scores the trials in blocks of at most
    `_BLOCK_CELLS` cells (trials x side, and one trial when the side alone
    is larger), so the temporaries stay small whatever the number of
    trials.  A block draws all its words' cells in one stacked SplitMix64
    call (row t the cells of `sample_word` at trial t's seed) and counts
    their patterns as integers in one `bincount`, each pattern code built
    from one slice per window point of the words extended by wrap-around
    (`_pattern_counts`), and scores them (`_count_distances`): a single
    cap in one stacked step, any other system word by word.

    The base measure's own averaged statistics should sit strictly inside
    the smallest ball; if not, the report is flagged rather than refused.
    The inside fraction tends to 1 as the side N grows.  When the measure
    lies on the boundary of Γ (a pattern rate exactly at a cap), only the
    eps margin absorbs the fluctuations of the capped pattern's empirical
    rate, whose standard deviation is sigma/sqrt(N) for large N.  The
    fraction then approaches 1 at the central-limit rate, with the outside
    fraction near P(Z > eps sqrt(N) / sigma), and it is close to 1 only
    once N is several times (sigma / eps)^2.
    """
    eps_list = tuple(sorted(_checked_eps(e) for e in eps_list))
    sides = tuple(sorted(_whole(n, "side") for n in sides))
    trials = _whole(trials, "trials")
    if not eps_list or not sides:
        raise ValidationError("concentration_check needs at least one eps and one side")
    if len(set(sides)) < len(sides):
        raise ValidationError("concentration_check sides must be distinct")
    if trials < 1:
        raise ValidationError("concentration_check needs at least one trial")
    if not isinstance(mu, SiteProductMeasure):
        raise ValidationError("expected a site-product measure")
    if not isinstance(gamma, ConstraintSet):
        raise ValidationError("concentration_check needs a ConstraintSet, "
                              f"not {type(gamma).__name__}")
    if mu.alphabet != gamma.alphabet:
        raise ValidationError("the measure and the constraint set have different alphabets")
    for n in sides:
        if n < len(gamma.shape):
            raise ValidationError(f"side {n} is shorter than the window")

    tiled = [mu.tile(n) for n in sides]
    base = averaged_marginal(tiled[0], gamma.shape)
    base_distance = tv_distance_to_set(base, gamma)
    base_feasible = base_distance < min(eps_list)

    dtype = cell_dtype(mu.alphabet)
    bars = np.asarray(eps_list) + 1e-12
    fractions = np.zeros((len(eps_list), len(sides)))
    for j, n in enumerate(sides):
        thresholds = _thresholds(tiled[j])
        block = max(1, _BLOCK_CELLS // n)
        for t in range(0, trials, block):
            # trial t' of side j draws the cells of
            # sample_word(tiled[j], seed ^ (j * trials + t'))
            first = j * trials + t
            seeds = np.uint64(seed & _MASK64) ^ np.arange(
                first, first + min(block, trials - t), dtype=np.uint64)
            counts = _pattern_counts(_draw_cells(thresholds, seeds, dtype), [gamma.shape],
                                     n, gamma.alphabet.size, gamma.npatterns)
            dists = _count_distances(counts, n, gamma)
            fractions[:, j] += (dists[:, None] <= bars).sum(axis=0)
    fractions /= trials

    outside = np.clip(1.0 - fractions, 1.0 / (10 * trials), None)
    decay = -np.log(outside) / np.asarray(sides)[None, :]
    monotone = tuple(
        bool(np.all(np.diff(fractions[i]) >= -1e-12))
        for i in range(len(eps_list))
    )
    return ConcentrationReport(eps_list, sides, trials, seed, fractions,
                               base_distance, base_feasible, decay, monotone)


def _count_distances(counts: np.ndarray, n: int, gamma: ConstraintSet) -> np.ndarray:
    """`tv_distance_to_set` of the empirical distribution of each row of
    pattern counts (S, m) over n placements.  A single cap
    (`ConstraintSet.cap`, mass of A at most b) is one stacked step,
    max(0, (counts @ ind) / n - b): the capped count is an exact integer
    sum, so on a one-pattern cap each distance is the closed form of
    `tv_distance_to_set` bit for bit.  On a cap of several patterns it is
    the correctly rounded mass, which may differ from that form's sum of
    rounded rates in the last bits, so an inside decision could change
    only for a distance within those bits of eps + 1e-12.  Any other
    system solves the distance LP on each row divided by n, the floats of
    `empirical_distribution`'s exact fractions (both are below 2^53, so
    the division rounds correctly), equal to `tv_distance_to_set` bit for
    bit."""
    if gamma.cap is None:
        return np.array([_probs_distance(row / n, gamma) for row in counts])
    ind, b = gamma.cap
    return np.maximum(0.0, (counts @ ind) / n - b)


# ---------------------------------------------------------------------------
# Inequality-chain report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HasseQuantity:
    name: str
    value: float
    provenance: str  # which module/operation computed it


@dataclass(frozen=True, eq=False)
class HasseReport:
    dim: int
    quantities: tuple[HasseQuantity, ...]
    count_rows: tuple[CountRow, ...]
    edges: tuple[tuple[str, bool, str], ...]  # (description, holds, detail)
    hind_measure: SiteProductMeasure  # the certified witness
    capacity: CapacityResult          # capacity_1d's result and duality gap

    def value(self, name: str) -> float:
        for qt in self.quantities:
            if qt.name == name:
                return qt.value
        raise KeyError(name)


# Slack of the chain's "<= capacity_1d" edges.
_CHAIN_TOL = 1e-6


def hasse_report(gamma: ConstraintSet, dim: int, *,
                 hind_sides: Sequence[int] = (2, 3, 4),
                 count_sides: Sequence[int] = (4, 6, 8),
                 restarts: int = 10, seed: int = 0) -> HasseReport:
    """Assemble the bound chain for a 1-D system and its d-dimensional
    axial product, then assert every inequality that must hold:

    * product-measure bound <= 1-D capacity (product measures are a
      restriction of the optimisation);
    * the lift to d dimensions preserves the entropy rate to 1e-12;
    * the dimension-interpolation bound never exceeds the 1-D capacity.

    The product-measure bound and its lift are `hind_bound_report`'s at
    eps = 0 over `hind_sides`.  The dimension-interpolation bound
    (`elimeysch_lower_bound`) is stated for binary systems only, so on a
    larger alphabet it, its edge and its share of `best_lower_bound` are
    left out.  A violated edge raises ValidationError with a diagnostic — a
    report is only ever returned with all required edges holding.
    """
    cap = capacity_1d(gamma)
    hind = hind_bound_report(gamma, dim, (0.0,), hind_sides,
                             restarts=restarts, seed=seed)
    best = hind.best
    dim_bounds = ([elimeysch_lower_bound(cap.value, dim).value]
                  if gamma.alphabet.size == 2 else [])
    rows = internal_capacity_sequence(gamma, count_sides, 0.0)

    quantities = (
        HasseQuantity("hind", best.value, "indentropy.hind_fixed_n"),
        HasseQuantity("hind_lift", hind.lift_rate, "indentropy.axial_lift"),
        HasseQuantity("capacity_1d", cap.value, "capacity.capacity_1d"),
        *(HasseQuantity("dimension_bound", v, "capacity.elimeysch_lower_bound")
          for v in dim_bounds),
        HasseQuantity("best_lower_bound", max([best.value, *dim_bounds]),
                      "validation.hasse_report"),
    )
    edges = (
        ("hind <= capacity_1d", best.value <= cap.value + _CHAIN_TOL,
         f"{best.value:.12g} vs {cap.value:.12g}"),
        ("lift preserves rate", hind.lift_rate_error <= 1e-12,
         f"error {hind.lift_rate_error:.3g}"),
        *(("dimension_bound <= capacity_1d", v <= cap.value + _CHAIN_TOL,
           f"{v:.12g} vs {cap.value:.12g}") for v in dim_bounds),
    )
    bad = [(desc, detail) for desc, ok, detail in edges if not ok]
    if bad:
        msgs = "; ".join(f"{d} violated ({x})" for d, x in bad)
        raise ValidationError(f"inequality chain broken: {msgs}")
    return HasseReport(dim, quantities, tuple(rows), edges, best.measure, cap)


# ---------------------------------------------------------------------------
# Cyclic vs non-cyclic counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicRow:
    side: int
    cyclic: int
    noncyclic: int
    contained: bool   # cyclic <= noncyclic
    gap: float        # (log2 noncyclic - log2 cyclic) / cells


@dataclass(frozen=True, eq=False)
class CyclicReport:
    convention: str
    dim: int
    rows: tuple[CyclicRow, ...]
    gap_decreasing: bool


def cyclic_vs_noncyclic(gamma: ConstraintSet, sides: Sequence[int], *,
                        dim: int = 1, mode: str = "strict",
                        convention: str = "tile") -> CyclicReport:
    """Count admissible words under wrapped and non-wrapped placements of a
    fully-constrained system and report the per-cell rate gap.

    Every cyclically admissible word is admissible non-cyclically (fewer
    windows are checked), so cyclic <= noncyclic for each side, and the
    normalised gap should shrink as the side grows — both facts are
    reported per row.
    """
    dim = _whole(dim, "dimension")
    system = gamma if dim == 1 else axial_product(gamma, dim, mode)
    rows = []
    for n in sorted(_whole(n, "side") for n in sides):
        cyc = count_admissible(n, system, 0.0)
        noncyc = count_admissible_noncyclic(n, system, convention=convention)
        cells = n ** dim
        if cyc > 0 and noncyc > 0:
            gap = (math.log2(noncyc) - math.log2(cyc)) / cells
        elif noncyc > 0:
            gap = math.inf
        else:
            gap = 0.0
        rows.append(CyclicRow(n, cyc, noncyc, cyc <= noncyc, gap))
    gaps = [r.gap for r in rows]
    decreasing = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    return CyclicReport(convention, dim, tuple(rows), decreasing)
