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
    placements,
)
from semicap.capacity import (
    CountRow,
    capacity_1d,
    elimeysch_lower_bound,
    internal_capacity_sequence,
)
from semicap.indentropy import PeriodicProductMeasure, hind_bound_report
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


class SplitMix64:
    """The SplitMix64 generator (Steele–Lea–Flood), pinned for
    reproducibility: state advances by the golden-ratio increment
    0x9E3779B97F4A7C15 and the output mixes with the Stafford "mix13"
    constants.  `next_float` takes the top 53 bits, so results are
    bit-identical on every platform.  `floats` is the same stream as one
    numpy block; the scalar methods stay its reference.
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

    def floats(self, n: int) -> np.ndarray:
        """The next n values of `next_float` as one float64 array; the
        state advances by n.  uint64 array arithmetic wraps mod 2^64, which
        is the scalar form's masking."""
        if n < 0:
            raise ValidationError("cannot draw a negative number of floats")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(self.GAMMA)
        z += np.uint64(self.state)
        self.state = (self.state + n * self.GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(self.MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(self.MIX2)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        return z.astype(np.float64) * 2.0 ** -53


def sample_word(mu, seed: int, side: int | None = None) -> Word:
    """Draw one word from a product measure.

    `mu` is a SiteProductMeasure (side fixed by the measure; `side`, if
    given, must equal it) or a PeriodicProductMeasure together with `side`
    (a multiple of the period).
    The cells, in row-major order, take one block of a SplitMix64 stream
    seeded with `seed` (cell i the i-th `next_float`), and each cell's
    symbol is the inverse CDF of its site row at its draw — equal seeds
    give bit-identical words everywhere.
    """
    if isinstance(mu, PeriodicProductMeasure):
        if side is None:
            raise ValidationError("side is required for a periodic measure")
        mu = mu.tile(side)
    if not isinstance(mu, SiteProductMeasure):
        raise ValidationError("expected a site-product or periodic measure")
    if side is not None and side != mu.side:
        raise ValidationError(f"side {side!r} differs from the measure's side {mu.side}")
    cells = _draw_cells(_cumulative_rows(mu), seed, cell_dtype(mu.alphabet))
    return Word(mu.alphabet, cells.reshape((mu.side,) * mu.dim))


def _cumulative_rows(mu: SiteProductMeasure) -> np.ndarray:
    """Each site row's cumulative masses without the last: the symbol is
    the number of them at or below the draw, which clamps it to q-1
    against rounding in the last sum (the row is nondecreasing)."""
    return np.cumsum(mu.site_dists, axis=1)[:, :-1]


def _draw_cells(cums: np.ndarray, seed: int, dtype) -> np.ndarray:
    """The flat cells of `sample_word`: cell i is the inverse CDF of row i
    of `cums` at the i-th float of a SplitMix64 stream seeded with seed."""
    u = SplitMix64(seed).floats(len(cums))
    return (cums <= u[:, None]).sum(axis=1, dtype=dtype)


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
    Sides must be distinct whole numbers, and trials a whole number.

    Each side tiles the measure, takes its cumulative site rows and builds
    its placement table once, so a trial only draws the word's cells (those
    of `sample_word` at its seed) and counts its patterns as integers over
    the table.  The counts divided by the side are the floats of
    `empirical_distribution`'s exact fractions (both are below 2^53, so the
    division rounds correctly).  Each word's distance, the closed form when
    the system is a single cap (`ConstraintSet.cap`) or else the LP, equals
    `tv_distance_to_set` of its empirical distribution bit for bit.

    The base measure's own averaged statistics should sit strictly inside
    the smallest ball; if not, the report is flagged rather than refused.
    The inside fraction tends to 1 as the side N grows.  When the measure
    lies on the boundary of Γ (a pattern rate exactly at a cap), only the
    eps margin absorbs the fluctuations of the capped pattern's empirical
    rate, whose standard deviation is sigma/sqrt(N) for large N; the fraction then approaches 1 at the central-limit rate, with the
    outside fraction near P(Z > eps sqrt(N) / sigma), and it is close to 1
    only once N is several times (sigma / eps)^2.
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
    if isinstance(mu, SiteProductMeasure):
        if mu.dim != 1:
            raise ValidationError("concentration_check samples 1-D words")
        mu = PeriodicProductMeasure(mu.alphabet, mu.side, mu.site_dists)
    if not isinstance(mu, PeriodicProductMeasure):
        raise ValidationError("expected a site-product or periodic measure")
    if not isinstance(gamma, ConstraintSet):
        raise ValidationError("concentration_check needs a ConstraintSet, "
                              f"not {type(gamma).__name__}")
    if mu.alphabet != gamma.alphabet:
        raise ValidationError("the measure and the constraint set have different alphabets")
    for n in sides:
        if n % mu.period or n < len(gamma.shape):
            raise ValidationError(f"side {n} incompatible with the measure")

    tiled = [mu.tile(n) for n in sides]
    base = averaged_marginal(tiled[0], gamma.shape)
    base_distance = tv_distance_to_set(base, gamma)
    base_feasible = base_distance < min(eps_list)

    dtype = cell_dtype(mu.alphabet)
    fractions = np.zeros((len(eps_list), len(sides)))
    for j, n in enumerate(sides):
        cums = _cumulative_rows(tiled[j])
        table = placements(gamma.shape, n)
        inside = np.zeros(len(eps_list))
        for t in range(trials):
            # the cells of sample_word(tiled[j], seed ^ (j * trials + t))
            cells = _draw_cells(cums, seed ^ (j * trials + t), dtype)
            counts = _pattern_counts(cells, table, gamma.alphabet.size,
                                     gamma.npatterns)
            dist = _probs_distance(counts / n, gamma)
            for i, eps in enumerate(eps_list):
                if dist <= eps + 1e-12:
                    inside[i] += 1
        fractions[:, j] = inside / trials

    outside = np.clip(1.0 - fractions, 1.0 / (10 * trials), None)
    decay = -np.log(outside) / np.asarray(sides)[None, :]
    monotone = tuple(
        bool(np.all(np.diff(fractions[i]) >= -1e-12))
        for i in range(len(eps_list))
    )
    return ConcentrationReport(eps_list, sides, trials, seed, fractions,
                               base_distance, base_feasible, decay, monotone)


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
    hind_measure: SiteProductMeasure | None = None  # the certified witness

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
    eps = 0 over `hind_sides`.  A violated edge raises ValidationError with
    a diagnostic — a report is only ever returned with all required edges
    holding.
    """
    cap = capacity_1d(gamma)
    hind = hind_bound_report(gamma, dim, (0.0,), hind_sides,
                             restarts=restarts, seed=seed)
    best = hind.best
    dim_bound = elimeysch_lower_bound(cap.value, dim)
    rows = internal_capacity_sequence(gamma, count_sides, 0.0)

    quantities = (
        HasseQuantity("hind", best.value, "indentropy.hind_fixed_n"),
        HasseQuantity("hind_lift", hind.lift_rate, "indentropy.axial_lift"),
        HasseQuantity("capacity_1d", cap.value, "capacity.capacity_1d"),
        HasseQuantity("dimension_bound", dim_bound.value,
                      "capacity.elimeysch_lower_bound"),
        HasseQuantity("best_lower_bound",
                      max(best.value, dim_bound.value),
                      "validation.hasse_report"),
    )
    edges = (
        ("hind <= capacity_1d", best.value <= cap.value + _CHAIN_TOL,
         f"{best.value:.12g} vs {cap.value:.12g}"),
        ("lift preserves rate", hind.lift_rate_error <= 1e-12,
         f"error {hind.lift_rate_error:.3g}"),
        ("dimension_bound <= capacity_1d",
         dim_bound.value <= cap.value + _CHAIN_TOL,
         f"{dim_bound.value:.12g} vs {cap.value:.12g}"),
    )
    bad = [(desc, detail) for desc, ok, detail in edges if not ok]
    if bad:
        msgs = "; ".join(f"{d} violated ({x})" for d, x in bad)
        raise ValidationError(f"inequality chain broken: {msgs}")
    return HasseReport(dim, quantities, tuple(rows), edges, best.measure)


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
    system = gamma if dim == 1 else axial_product(gamma, dim, mode)
    rows = []
    for n in sorted(int(n) for n in sides):
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
