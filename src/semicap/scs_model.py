"""Semiconstrained systems: constraint polytopes, admissibility, counting.

A system is a polytope Γ of pattern distributions over one shape
(`ConstraintSet`), or a family of one-dimensional polytopes applied along
each axis of a d-dimensional array (`AxialSystem`, in either *strict*
per-axis mode or *weak* axis-averaged mode).  A word is admissible at slack
ε when its empirical pattern distribution lies within total-variation
distance ε of Γ.

Counting is exact: admissibility of a word is decided from integer pattern
counts by rational-arithmetic comparisons when ε = 0.  The counter is a
transfer over the cells that merges words agreeing on the cells later
windows still read and on their integer pattern statistics, prunes on
partial statistics with the same exact comparisons, and tests each merged
class once at the end, so it agrees with the exhaustive counter word for
word.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from semicap.lattice_core import (
    Alphabet,
    PatternDistribution,
    Shape,
    SizeGuardError,
    ValidationError,
    Word,
    _checked_eps,
    _pattern_counts,
    _whole,
    empirical_counts,
    # unused here; kept importable because the benchmark tracer patches it
    empirical_distribution,
    pattern_index,
    pattern_space_size,
    placements,
)
from semicap.linprog import FEASIBILITY_TOL, solve_lp

__all__ = [
    "LinearConstraint",
    "ConstraintSet",
    "AxialSystem",
    "EmptySystemError",
    "rll_constraint",
    "fully_constrained",
    "axial_product",
    "tv_distance_to_set",
    "is_admissible",
    "count_admissible",
    "count_admissible_noncyclic",
    "count_exhaustive",
    "find_admissible_word",
]

# Exhaustive enumeration refuses alphabets^cells beyond this.
MAX_ENUMERATION = 1 << 26
# Words the exhaustive counter enumerates at once.
_ENUMERATION_BLOCK = 1 << 13
# The transfer counter refuses a frontier of more than this many bits
# (cells * log2 q) and a layer of more than 2^this many live states.
MAX_STATE_BITS = 20


class EmptySystemError(ValidationError):
    """The constraint polytope contains no probability distribution."""


# ---------------------------------------------------------------------------
# Constraint sets
# ---------------------------------------------------------------------------

def _rational(x) -> Fraction:
    """`x` read exactly, by `LinearConstraint`'s rule.  NaN, infinities and
    values past the float range (1e400) raise ValidationError."""
    try:
        if isinstance(x, np.integer):
            x = int(x)
        value = (Fraction(x) if isinstance(x, (str, int, Fraction))
                 else Fraction(repr(float(x))))
        float(value)   # raises OverflowError past the float range
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"constraint data must be finite numbers, not {x!r:.40}") from exc
    return value


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """One linear condition  coeffs . mu  (<=|==)  bound  on a distribution.

    Each number is read once, here, as an exact `Fraction`: a `Fraction` or
    int as it is, a string by `Fraction(text)` ("0.3" and "1/3" are exact),
    a float as its shortest round-trip decimal (0.3 is 3/10, not the binary
    `Fraction(0.3)`).  `coeffs` is an object array, so `coeffs @ floats`
    is a float; `ConstraintSet` holds the float arrays for float readers."""

    coeffs: np.ndarray
    bound: Fraction
    sense: str = "<="

    def __post_init__(self) -> None:
        if self.sense not in ("<=", "=="):
            raise ValidationError(f"unknown constraint sense {self.sense!r}")
        object.__setattr__(self, "coeffs",
                           np.array([_rational(c) for c in self.coeffs], dtype=object))
        object.__setattr__(self, "bound", _rational(self.bound))


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """A polytope of pattern distributions over one shape (intersected with
    the probability simplex, which is implicit).

    The rows are also held as read-only arrays, built once: `coeffs`
    (rows x patterns), `bounds`, and `equal` (True on `==` rows), in the
    order of `constraints`.  Every float reader uses these (the LPs, the
    pressure dual, `_meets_rows`); the exact tests read the `Fraction`
    rows of `constraints`.
    Two more fields say once what the rows mean, however they are written
    (`_classify`): `forbidden`, the 0/1 indicator of the patterns Γ forbids
    when forbidding is all its rows do, else None; and `cap`, (indicator
    of A, b) when Γ is "mass of A at most b", else None."""

    alphabet: Alphabet
    shape: Shape
    constraints: tuple[LinearConstraint, ...]
    coeffs: np.ndarray = field(init=False, repr=False)
    bounds: np.ndarray = field(init=False, repr=False)
    equal: np.ndarray = field(init=False, repr=False)
    forbidden: np.ndarray | None = field(init=False, repr=False)
    cap: tuple[np.ndarray, float] | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = pattern_space_size(self.alphabet, self.shape)
        cs = tuple(self.constraints)
        for c in cs:
            if len(c.coeffs) != m:
                raise ValidationError("constraint coefficient length mismatch")
        object.__setattr__(self, "constraints", cs)
        arrays = {
            "coeffs": np.array([c.coeffs for c in cs], dtype=np.float64).reshape(len(cs), m),
            "bounds": np.array([c.bound for c in cs], dtype=np.float64),
            "equal": np.array([c.sense == "==" for c in cs], dtype=bool),
        }
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        forbidden, cap = _classify(self.coeffs, self.bounds, self.equal)
        object.__setattr__(self, "forbidden", forbidden)
        object.__setattr__(self, "cap", cap)

    @property
    def npatterns(self) -> int:
        return pattern_space_size(self.alphabet, self.shape)

    def contains(self, dist: PatternDistribution, tol: float = FEASIBILITY_TOL) -> bool:
        return _meets_rows(self, dist.float_probs(), tol)


def _meets_rows(gamma: ConstraintSet, probs: np.ndarray, tol: float) -> bool:
    """Whether float pattern vector p meets every row of Γ within `tol`:
    float(c @ p) <= b + tol, or |float(c @ p) - b| <= tol on an `==` row."""
    for c, b, e in zip(gamma.coeffs, gamma.bounds, gamma.equal):
        v = float(c @ probs)
        if not (abs(v - b) <= tol if e else v <= b + tol):
            return False
    return True


@dataclass(frozen=True, eq=False)
class AxialSystem:
    """A one-dimensional system applied along every axis of a d-cube.

    mode "strict": a word is admissible iff for each axis i its empirical
    distribution over the factor shape embedded along axis i lies in factor
    i's set.  mode "weak": all factors must be one common set Γ; the
    per-axis empirical distributions are averaged over the axes and the
    single averaged distribution must lie in Γ.
    """

    factors: tuple[ConstraintSet, ...]
    dim: int
    mode: str = "strict"

    def __post_init__(self) -> None:
        fs = tuple(self.factors)
        if self.mode not in ("strict", "weak"):
            raise ValidationError(f"unknown axial mode {self.mode!r}")
        if len(fs) != self.dim or self.dim < 1:
            raise ValidationError("need one factor per axis")
        for f in fs:
            if f.shape.dim != 1:
                raise ValidationError("axial factors must be one-dimensional")
        if self.mode == "weak":
            first = fs[0]
            if not all(f.shape == first.shape and f.alphabet == first.alphabet
                       and all(np.array_equal(getattr(f, a), getattr(first, a))
                               for a in ("coeffs", "bounds", "equal"))
                       for f in fs[1:]):
                raise ValidationError("weak mode requires a single common factor set")
        object.__setattr__(self, "factors", fs)

    @property
    def alphabet(self) -> Alphabet:
        return self.factors[0].alphabet

    def axis_shape(self, axis: int) -> Shape:
        """Factor shape embedded along the given axis of the d-cube."""
        pts = []
        for (j,) in self.factors[axis].shape.points:
            p = [0] * self.dim
            p[axis] = j
            pts.append(tuple(p))
        return Shape(pts)


def rll_constraint(k: int, p) -> ConstraintSet:
    """Binary system capping the frequency of the all-ones run of length k+1.

    Words are admissible (at slack 0) iff at most a p-fraction of the cyclic
    length-(k+1) windows read 1^(k+1); p = 0 recovers the hard run-length
    constraint, and any p >= 2^-(k+1) leaves the uniform measure inside.
    `p` is read exactly, as `LinearConstraint` reads a bound, so one third
    may be given as Fraction(1, 3) or "1/3".
    """
    if k < 0:
        raise ValidationError("k must be >= 0")
    alphabet = Alphabet.binary()
    shape = Shape.segment(k + 1)
    m = 2 ** (k + 1)
    coeffs = np.zeros(m)
    coeffs[m - 1] = 1.0  # the all-ones pattern has the top index
    return ConstraintSet(alphabet, shape, (LinearConstraint(coeffs, p, "<="),))


def fully_constrained(
    alphabet: Alphabet, shape: Shape, forbidden: Iterable[Sequence[int]]
) -> ConstraintSet:
    """The system whose measures give zero mass to each forbidden pattern."""
    m = pattern_space_size(alphabet, shape)
    cons = []
    for pat in forbidden:
        pat = tuple(int(a) for a in pat)
        if len(pat) != len(shape):
            raise ValidationError("forbidden pattern length != shape size")
        coeffs = np.zeros(m)
        coeffs[pattern_index(pat, alphabet.size)] = 1.0
        cons.append(LinearConstraint(coeffs, 0.0, "=="))
    return ConstraintSet(alphabet, shape, tuple(cons))


def axial_product(gamma: ConstraintSet, dim: int, mode: str = "strict") -> AxialSystem:
    """Apply one 1-D system along every axis of a dim-cube."""
    return AxialSystem((gamma,) * dim, dim, mode)


# ---------------------------------------------------------------------------
# Distance to the polytope
# ---------------------------------------------------------------------------

def _classify(coeffs: np.ndarray, bounds: np.ndarray, equal: np.ndarray):
    """`ConstraintSet.forbidden` and `.cap` of the rows coeffs . mu (<=|==)
    bounds.  Each row is shifted to a zero minimum and scaled to a unit
    maximum, exact up to rounding since the mass is 1, and rows that no
    distribution breaks are dropped.  An `==` row left with bound 1 is the
    row 1 - c with bound 0.  A row left with bound 0 forbids the patterns
    it charges, whatever its sense and weights.  With no row left
    nothing is forbidden and the cap is (zeros, inf); forbidding every
    pattern leaves no distribution, which no cap describes."""
    low, high = coeffs.min(axis=1), coeffs.max(axis=1)
    kept = ~((bounds >= high) & (~equal | (bounds == low)))
    low, span = low[kept], (high - low)[kept]
    span[span == 0.0] = 1.0   # a constant row kept here fails everywhere
    rows = (coeffs[kept] - low[:, None]) / span[:, None]
    b = (bounds[kept] - low) / span
    at_max = equal[kept] & (b == 1.0)
    if at_max.any():
        rows[at_max], b[at_max] = 1.0 - rows[at_max], 0.0
    rows.flags.writeable = False
    if not (b == 0.0).all():
        if (len(b) == 1 and not equal[kept][0] and b[0] > 0.0
                and ((rows[0] == 0.0) | (rows[0] == 1.0)).all()):
            return None, (rows[0], float(b[0]))
        return None, None
    forbidden = (rows > 0.0).any(axis=0).astype(np.float64)
    forbidden.flags.writeable = False
    return forbidden, (None if forbidden.all() else (forbidden, 0.0 if len(b) else math.inf))


def _ball_reach(coeffs, equal: bool):
    """How far c . mu can rise per unit of TV distance from the row's
    polytope: within TV distance eps, c . mu <= b + eps * reach.  On a `<=`
    row, moving mass from the cheapest pattern to the dearest raises c . mu
    by max c - min c.  A zero `==` row with c >= 0 holds only where c = 0,
    so there the reach is max c."""
    return max(coeffs) if equal else max(coeffs) - min(coeffs)


def tv_distance_to_set(mu: PatternDistribution, gamma: ConstraintSet) -> float:
    """Total-variation distance from mu to the polytope Γ.

    Solved as a linear program (L1 distance linearised with one auxiliary
    variable per pattern), or, when Γ is a single cap (`ConstraintSet.cap`,
    however its rows are written), by the closed form max(0, mass of A - b).
    """
    if mu.shape != gamma.shape or mu.alphabet != gamma.alphabet:
        raise ValidationError("distribution and constraint set differ in shape or alphabet")
    return _probs_distance(mu.float_probs(), gamma)


def _probs_distance(probs: np.ndarray, gamma: ConstraintSet) -> float:
    """`tv_distance_to_set` of the float pattern vector `probs`: the closed
    form max(0, ind @ probs - b) when Γ is the cap (ind, b), else the LP."""
    if gamma.cap is not None:
        ind, b = gamma.cap
        return max(0.0, float(ind @ probs) - b)

    m, eq = gamma.npatterns, gamma.equal
    # variables z = (nu, t);  minimise (1/2) sum t
    c = np.concatenate([np.zeros(m), 0.5 * np.ones(m)])
    eye = np.eye(m)
    rows = np.hstack([gamma.coeffs, np.zeros(gamma.coeffs.shape)])
    res = solve_lp(
        c,
        a_ub=np.vstack([np.hstack([eye, -eye]), np.hstack([-eye, -eye]), rows[~eq]]),
        b_ub=np.concatenate([probs, -probs, gamma.bounds[~eq]]),
        a_eq=np.vstack([np.concatenate([np.ones(m), np.zeros(m)]), rows[eq]]),
        b_eq=np.concatenate([[1.0], gamma.bounds[eq]]),
    )
    if not res.ok:
        raise EmptySystemError("constraint set contains no distribution")
    return max(0.0, res.value)


# ---------------------------------------------------------------------------
# Admissibility of a single word
# ---------------------------------------------------------------------------

def _exact_row_check(counts: Sequence[int], con: LinearConstraint, total: int) -> bool:
    """Exact rational test of `con` against integer pattern counts/total."""
    lhs = sum(c * int(n) for c, n in zip(con.coeffs, counts) if n and c)
    rhs = con.bound * total
    return lhs <= rhs if con.sense == "<=" else lhs == rhs


def _checks(system) -> list[tuple[list[Shape], ConstraintSet]]:
    """What admissibility checks, as (shapes, factor) pairs: the pattern
    counts of the shapes are summed, and the averaged distribution must lie
    in the factor.  A constraint set is one check on its own shape, a strict
    axial product one check per axis, and a weak one a single check on all
    axis shapes together."""
    if isinstance(system, ConstraintSet):
        return [([system.shape], system)]
    if isinstance(system, AxialSystem):
        shapes = [system.axis_shape(i) for i in range(system.dim)]
        if system.mode == "strict":
            return [([s], f) for s, f in zip(shapes, system.factors)]
        return [(shapes, system.factors[0])]
    raise ValidationError(f"unsupported system type {type(system).__name__}")


def is_admissible(word: Word, system, eps: float = 0.0) -> bool:
    """Does the word's empirical distribution lie within TV distance eps of
    the system?  At eps = 0 the test is exact (integer counts, rational
    comparisons); for eps > 0 each distance is the float distance LP's (or
    a single cap's closed form), accepted within eps + FEASIBILITY_TOL.
    The transfer counter settles most relaxed types exactly instead
    (`_Transfer._accepts`); this test does not, so it checks the counter."""
    eps = _checked_eps(eps)
    for shapes, gamma in _checks(system):
        counts = sum(empirical_counts(word, s) for s in shapes)
        if not _counts_admissible(counts, word.side ** word.dim * len(shapes), gamma, eps):
            return False
    return True


def _counts_admissible(counts: np.ndarray, total: int, gamma: ConstraintSet,
                       eps: float) -> bool:
    """Does the distribution counts/total lie within TV distance eps of Γ?
    Exact at eps = 0 (integer counts, rational comparisons)."""
    if eps == 0:
        return all(_exact_row_check(counts, c, total) for c in gamma.constraints)
    mu = PatternDistribution(gamma.alphabet, gamma.shape, counts / total)
    return tv_distance_to_set(mu, gamma) <= eps + FEASIBILITY_TOL


# ---------------------------------------------------------------------------
# Counting engine
# ---------------------------------------------------------------------------
#
# The counter is one forward transfer over the cells in row-major order.  A
# placement's pattern becomes known when its latest cell is filled, and a
# filled cell stays in the *frontier* while a placement completing later
# still reads it.  A state is the frontier's values plus integer statistics
# of the placements completed so far: at eps = 0 one exact total per
# constraint row; at eps > 0 the totals of the prunable rows and each
# check's pattern-count vector (its type).  Equal states merge and their
# word counts add as Python ints.  Rows with nonnegative integer weights
# and a budget are checked after every cell, which drops every word their
# partial totals already rule out; the precise admissibility condition is
# tested once per final state, where the statistics are the full counts.
# At eps > 0 a type is first tested against Γ's own rows, unrelaxed, in
# exact integers: a type inside Γ is at distance 0.  When Γ's rows are all
# `<=` and share a sink pattern at every row's minimum, a type outside Γ
# is settled by exact lower and upper bounds on the transport that brings
# it into Γ (`_transport_bounds`); with one row violated they meet at the
# exact distance.  Only the types those bounds leave open, or that they do
# not apply to, get the float distance LP, or a single cap's closed form.
#
# What a step does is fixed by the cells and shapes alone, so it is built
# once, before any state is seen.  Writing a symbol at cell t extends the
# frontier by it; the placements completing at t read some positions of
# the extended frontier, and the next frontier keeps some.  Both position
# lists become `operator.itemgetter`s.  The increments of the statistics
# depend only on the values read, so a table per step maps those values to
# the increments, filled on first use, with at most q^(cells read)
# entries.  Steps that complete the same checks in the same order share
# one table, since the same values then mean the same increments.
# In 1-D this is the de Bruijn transfer matrix with the head kept for the
# wrap, in 2-D the row-profile transfer.
#
# A cyclic count in d >= 2 merges states once, after the first slab: the
# first n^(d-1) cells, row 0 in 2-D.  When the frontier there is exactly
# the slab in cell order, each state is replaced by the least of its
# slab's cyclic shifts along the other axes, and merged states' words add.
# This is exact.  Such a shift, applied to whole arrays, maps admissible
# arrays one-to-one onto admissible arrays, since every check's placements
# are cyclic and only permute.  The statistics gathered so far come from
# the placements lying wholly inside the slab, which the shift permutes
# too; so a state and its shift have equally many admissible completions.
# The merge divides every later layer by up to n^(d-1).  A 1-D slab is one
# cell.  A given prefix fixes slab cells, which breaks the symmetry, and
# `first_word` keeps every head.
#
# Many states share a frontier, so a layer groups them by it:
# {frontier: {statistics: words}}.  The next frontier and the increments
# depend on the frontier and the symbol alone, so one tuple extension, one
# table lookup and one `keep` serve a whole group per symbol, and only
# `_advance` and the merge into the next layer's group run once per
# statistics vector.  The layer guard still counts states, before each
# new one is stored.  The groups do not keep the lexicographic
# order that the first word needs, so `first_word` carries each state's
# first prefix, the least word reaching it, as a base-q integer: a move
# by symbol a maps code c to c * q + a, which keeps the order of equal-
# length prefixes, and a merge keeps the least code.

@dataclass
class _Row:
    weights: list[int]         # integer weight per pattern of the row's check
    budget: Fraction           # prune/test:  weights.counts <= budget
    prunable: bool
    sense: str                 # "<=" or "==": leaf semantics at eps = 0


def _scale_row(con: LinearConstraint, scale: int, eps: float) -> _Row:
    """Turn a constraint on (averaged) distributions into an integer-weight
    row on raw pattern counts.

    `scale` is the factor relating counts to probabilities (placements per
    word, times the number of averaged shapes), so the exact test of
    c.mu (<=) b becomes  sum(weights.counts) <= b * scale * common  with
    integer weights = c * common.  For eps > 0 the budget of a prunable row
    is relaxed by eps times the row's `_ball_reach`.
    """
    common = math.lcm(*(c.denominator for c in con.coeffs))
    weights = [c.numerator * (common // c.denominator) for c in con.coeffs]
    equal = con.sense == "=="
    prunable = all(w >= 0 for w in weights) and (not equal or con.bound == 0)
    budget = con.bound * scale * common
    if eps and prunable:
        # the leaf test accepts distance <= eps + FEASIBILITY_TOL, so the prune
        # budget must be relaxed by at least that much to stay conservative
        budget += _eps_threshold(eps) * _ball_reach(weights, equal) * scale
    return _Row(weights, budget, prunable, con.sense)


def _eps_threshold(eps: float) -> Fraction:
    """The exact TV radius a relaxed type is accepted within: eps, read as
    the rows are (`_rational`: 0.1 is 1/10), widened by the LP's
    `FEASIBILITY_TOL`, as the leaf test `<= eps + FEASIBILITY_TOL` widens
    it.  The prune budgets and the transport verdict both read it."""
    return _rational(eps) + Fraction(FEASIBILITY_TOL)


def _gain_orders(gamma: ConstraintSet, exact: list[_Row]) -> list | None:
    """Per exact row, the patterns that gain over a common sink z, largest
    gain first, as (gain, pattern) pairs: gain w_j - w_z > 0, where z is a
    pattern at the minimum weight of every row.  None when the transport
    bound does not apply: an `==` row, no common sink, or Γ a single cap,
    whose closed-form distance costs nothing."""
    if gamma.cap is not None or any(row.sense != "<=" for row in exact):
        return None
    lows = [min(row.weights) for row in exact]
    if not any(all(row.weights[z] == lo for row, lo in zip(exact, lows))
               for z in range(gamma.npatterns)):
        return None
    return [sorted(((w - lo, j) for j, w in enumerate(row.weights) if w > lo),
                   key=lambda gj: -gj[0])
            for row, lo in zip(exact, lows)]


def _transport_bounds(counts: Sequence[int], exact: list[_Row],
                      orders: list) -> tuple[Fraction, Fraction] | None:
    """Exact lower and upper bounds, in counts (TV distance times the
    placements), on the distance from a type to Γ's all-`<=` rows `exact`
    with common-sink gain `orders` (`_gain_orders`); None when some row is
    not met by moving all its gaining counts to the sink: no distribution
    meets that row, and the distance LP reports Γ empty.

    Each violated row r has an excess E_r over its budget, and a fractional
    knapsack takes d_j <= N_j counts from the largest gains first until
    sum d_j g_rj >= E_r, D_r in all.  Any point of Γ at distance δ removes
    mass δ, which lowers row r by at most the removed mass times its gains,
    so δ >= D_r for every r: the lower bound is max_r D_r.  Moving
    max_r d_j^(r) counts of each pattern j to the sink raises no row and
    meets every one, so that plan's total is the upper bound.  With one
    violated row the two are equal, and exact."""
    lower = Fraction(0)
    moved: dict[int, Fraction] = {}
    for row, order in zip(exact, orders):
        excess = sum(w * c for w, c in zip(row.weights, counts)) - row.budget
        if excess <= 0:
            continue
        total = Fraction(0)
        for gain, j in order:
            have = counts[j]
            if not have:
                continue
            take = have if gain * have < excess else excess / gain
            excess -= gain * take
            total += take
            if take > moved.get(j, 0):
                moved[j] = take
            if excess <= 0:
                break
        if excess > 0:
            return None
        lower = max(lower, total)
    return lower, sum(moved.values(), Fraction(0))


def _row_holds(row: _Row, lhs: int) -> bool:
    """Does the integer total `lhs` meet the row's unrelaxed test?"""
    return lhs <= row.budget if row.sense == "<=" else lhs == row.budget


def _advance(stats: tuple, delta: tuple) -> tuple | None:
    """Statistics after the increments, or None once a capped slot exceeds
    its cap."""
    new = list(stats)
    for s, w, cap in delta:
        new[s] += w
        if new[s] > cap:
            return None
    return tuple(new)


def _getter(positions: tuple[int, ...]) -> itemgetter:
    """An itemgetter returning the tuple of the entries at `positions`, for
    any number of them: a slice when they run contiguously upwards."""
    lo = positions[0] if positions else 0
    if positions == tuple(range(lo, lo + len(positions))):
        return itemgetter(slice(lo, lo + len(positions)))
    return itemgetter(*positions)


class _Transfer:
    """Forward transfer counter over the cube {0..side-1}^d.

    `steps[t]` is (reads, keep, ks, deltas).  `reads` and `keep` are
    itemgetters over the extended frontier, the frontier's values in cell
    order followed by the symbol at cell t: `reads` returns the cells of
    the placements completing at t, one placement after another in
    shape-point order, and `keep` the next frontier.  `ks` lists those
    placements' checks, and `deltas` maps read values to the statistic
    increments, as `_delta` computes them on a miss.

    A layer is {frontier: {statistics: words}}.  `count` sums the words of
    the accepted final states; `first_word` decodes the least first prefix
    among them.  `slab` is the first slab's cell count when the frontier
    after it is exactly that slab, so that `count` merges its shifts; else
    0."""

    def __init__(self, side: int, system, eps: float = 0.0, cyclic: bool = True,
                 convention: str = "tile"):
        self.eps = _checked_eps(eps)
        radius = eps if self.eps else 0   # as given: `_eps_threshold` reads 1/3 as 1/3
        side = _whole(side, "side")
        if side < 1:
            raise ValidationError("side must be >= 1")
        checks = _checks(system)
        self.alphabet, self.dim = checks[0][1].alphabet, checks[0][0][0].dim
        self.side, self.q = side, self.alphabet.size
        ncells = side ** self.dim
        slack = 0 if convention == "tile" else 1

        # Statistic slots, per check: its rows (only the prunable ones at
        # eps > 0), then at eps > 0 its type.  `charge[pattern]` lists the
        # (slot, increment) pairs one placement of the check adds.  Each
        # type keeps its check's rows at eps = 0, the exact test of Γ itself.
        self.rows: list[tuple[int, _Row]] = []
        # (first slot, placements, factor, exact rows, gain orders, radius
        # in counts)
        self.types: list[tuple[int, int, ConstraintSet, list[_Row], list | None,
                               Fraction]] = []
        self.caps: list = []                                   # per slot: prune cap
        last = np.full(ncells, -1, dtype=np.int64)             # last step reading each cell
        done: list[list] = [[] for _ in range(ncells)]         # per step: (check, cells) completed
        self.charges: list[list] = []                          # per check: its charge
        self.widths: list[int] = []                            # per check: cells per placement
        for k, (shapes, gamma) in enumerate(checks):
            tables = [placements(s, side, cyclic=cyclic, slack=slack) for s in shapes]
            nplace = sum(len(tab) for tab in tables)
            charge: list[list[tuple[int, int]]] = [[] for _ in range(gamma.npatterns)]
            for con in gamma.constraints:
                row = _scale_row(con, nplace, radius)
                if self.eps and not row.prunable:
                    continue
                self.rows.append((len(self.caps), row))
                for i, w in enumerate(row.weights):
                    if w:
                        charge[i].append((len(self.caps), w))
                self.caps.append(math.floor(row.budget) if row.prunable else math.inf)
            if self.eps:
                exact = [_scale_row(con, nplace, 0.0) for con in gamma.constraints]
                self.types.append((len(self.caps), nplace, gamma, exact,
                                   _gain_orders(gamma, exact),
                                   _eps_threshold(radius) * nplace))
                for i in range(gamma.npatterns):
                    charge[i].append((len(self.caps) + i, 1))
                self.caps += [math.inf] * gamma.npatterns
            self.charges.append(charge)
            self.widths.append(len(gamma.shape))
            for tab in tables:
                np.maximum.at(last, tab, tab.max(axis=1, keepdims=True))
                for cells in tab.tolist():
                    done[max(cells)].append((k, cells))
        self.zero = (0,) * len(self.caps)

        # A cell two placements read appears twice in `reads`, always with
        # one value, so a table holds at most q^(distinct cells read)
        # entries.
        self.steps: list[tuple] = []
        deltas: dict = {}                  # one table per sequence of checks
        self.slab = 0
        slab = side ** (self.dim - 1) if cyclic and self.dim > 1 and side > 1 else 0
        frontier: list[int] = []
        last = last.tolist()
        for t in range(ncells):
            ext = frontier + [t]               # increasing, so bisection finds a cell
            reads = tuple([bisect_left(ext, c) for _, cells in done[t] for c in cells])
            keep = tuple([i for i, c in enumerate(ext) if last[c] > t])
            ks = tuple([k for k, _ in done[t]])
            self.steps.append((_getter(reads), _getter(keep), ks, deltas.setdefault(ks, {})))
            frontier = [ext[i] for i in keep]
            if len(frontier) * math.log2(self.q) > MAX_STATE_BITS:
                raise SizeGuardError(f"transfer frontier holds {len(frontier)} cells, "
                                     f"above {MAX_STATE_BITS} bits")
            if t == slab - 1 and frontier == list(range(slab)):
                self.slab = slab

    def _delta(self, ks: tuple, seen: tuple) -> tuple:
        """The statistic increments of one step's completed placements, of
        the checks `ks`, when its read positions hold `seen`, as (slot,
        increment, cap) triples."""
        q = self.q
        inc: dict[int, int] = {}
        it = iter(seen)
        for k in ks:
            idx = 0
            for _ in range(self.widths[k]):
                idx = idx * q + next(it)
            for slot, w in self.charges[k][idx]:
                inc[slot] = inc.get(slot, 0) + w
        caps = self.caps
        return tuple((s, w, caps[s]) for s, w in inc.items() if w)

    def _shifts(self) -> list[itemgetter]:
        """The cyclic shifts of the first slab, a (d-1)-cube, as itemgetters
        over its cells in order; the first is the identity."""
        axes = (self.side,) * (self.dim - 1)
        cells = np.arange(self.slab).reshape(axes)
        return [_getter(tuple(np.roll(cells, v, axis=tuple(range(len(axes)))).ravel().tolist()))
                for v in np.ndindex(*axes)]

    def _transfer(self, prefix: Sequence[int] = (), coded: bool = False) -> tuple[dict, dict]:
        """The final layer {frontier: {statistics: words}} and, when `coded`,
        each final state's first prefix, the least word reaching it, as a
        base-q integer {(frontier, statistics): code}.  Otherwise, with no
        prefix, each state after the first slab is its least shift."""
        layer: dict = {(): {self.zero: 1}}
        code = {((), self.zero): 0}
        q, limit = self.q, 1 << MAX_STATE_BITS
        merge = self.slab - 1 if self.slab and not (coded or prefix) else -1
        shifts = self._shifts() if merge >= 0 else ()
        for t, (reads, keep, ks, deltas) in enumerate(self.steps):
            syms = (prefix[t],) if t < len(prefix) else range(q)
            nxt: dict = {}
            least: dict = {}
            size = 0
            for front, group in layer.items():
                for a in syms:
                    ext = front + (a,)
                    seen = reads(ext)
                    delta = deltas.get(seen)
                    if delta is None:
                        delta = deltas[seen] = self._delta(ks, seen)
                    succ = keep(ext)
                    if t == merge:
                        succ = min([shift(succ) for shift in shifts])
                    target = nxt.get(succ)
                    if target is None:
                        target = {}
                    for stats, words in group.items():
                        new = _advance(stats, delta) if delta else stats
                        if new is None:
                            continue
                        if new in target:
                            target[new] += words
                        else:
                            if size >= limit:
                                raise SizeGuardError(
                                    f"transfer layer {t} exceeds 2^{MAX_STATE_BITS} states")
                            size += 1
                            target[new] = words
                        if coded:
                            c = code[front, stats] * q + a
                            key = (succ, new)
                            if key not in least or c < least[key]:
                                least[key] = c
                    if target:
                        nxt[succ] = target
            layer, code = nxt, least
        return layer, code

    def _accepts(self, stats: tuple, seen: dict) -> bool:
        """The admissibility test on one final state's statistics, exact at
        eps = 0.  At eps > 0 a type inside Γ (every exact row holds) is at
        distance 0.  A type outside it is settled by the exact transport
        bounds (`_transport_bounds`) against the radius `_eps_threshold`:
        accepted when the upper bound is within it, rejected when the
        lower bound exceeds it.  Only the types those bounds leave open, or
        that they do not apply to, go on to the distance LP."""
        if not self.eps:
            return all(_row_holds(row, stats[slot]) for slot, row in self.rows)
        for first, nplace, gamma, exact, orders, radius in self.types:
            counts = stats[first:first + gamma.npatterns]
            ok = seen.get((first, counts))
            if ok is None:
                ok = seen[first, counts] = self._type_admissible(
                    counts, nplace, gamma, exact, orders, radius)
            if not ok:
                return False
        return True

    def _type_admissible(self, counts: tuple, nplace: int, gamma: ConstraintSet,
                         exact: list[_Row], orders: list | None, radius: Fraction) -> bool:
        """Whether one type lies within the radius of Γ, at eps > 0."""
        if all(_row_holds(row, sum(w * c for w, c in zip(row.weights, counts)))
               for row in exact):
            return True
        bounds = _transport_bounds(counts, exact, orders) if orders is not None else None
        if bounds is not None:
            lower, upper = bounds
            if upper <= radius:
                return True
            if lower > radius:
                return False
        return _counts_admissible(np.array(counts, dtype=np.int64), nplace, gamma, self.eps)

    def count(self) -> int:
        seen: dict = {}
        return sum(words for group in self._transfer()[0].values()
                   for stats, words in group.items() if self._accepts(stats, seen))

    def first_word(self, prefix: Sequence[int] = ()) -> Word | None:
        """The lexicographically first admissible word: the least first
        prefix among the accepted final states."""
        seen: dict = {}
        codes = self._transfer(prefix, coded=True)[1]
        for (_, stats), code in sorted(codes.items(), key=itemgetter(1)):
            if self._accepts(stats, seen):
                cells = []
                for _ in range(len(self.steps)):
                    code, a = divmod(code, self.q)
                    cells.append(a)
                cells.reverse()
                return Word(self.alphabet, np.array(cells, dtype=np.int64)
                            .reshape((self.side,) * self.dim))
        return None


def count_admissible(side: int, system, eps: float = 0.0, *,
                     threads: int = 1) -> int:
    """Exact number of admissible side^d words (cyclic windows).

    `threads` is ignored: the transfer counter runs in the calling process.
    The parameter stays only because the benchmark worker passes
    `threads=1`; it goes with the next change to the benchmark.
    """
    return _Transfer(side, system, eps).count()


def count_admissible_noncyclic(side: int, system, *,
                               convention: str = "tile",
                               threads: int = 1) -> int:
    """Exact number of words with no forbidden pattern at any non-wrapping
    placement.

    The system (a `ConstraintSet`, or an `AxialSystem` whose factors all
    qualify) must be fully constrained (`ConstraintSet.forbidden`).  Two
    placement-index conventions are in use for a window of extent k-1 per
    axis: "tile" slides over all n-k+1 offsets per axis, so windows cover
    the whole cube, while "halfopen" stops one offset short (n-k per axis),
    leaving the trailing window unchecked.
    `threads` is ignored and stays only for the benchmark worker, as in
    `count_admissible`.
    """
    if convention not in ("tile", "halfopen"):
        raise ValidationError(f"unknown convention {convention!r}")
    if any(f.forbidden is None for _, f in _checks(system)):
        raise ValidationError("non-cyclic counting needs a fully-constrained system")
    return _Transfer(side, system, 0.0, cyclic=False, convention=convention).count()


def count_exhaustive(side: int, system, eps: float = 0.0) -> int:
    """Reference counter: enumerate every word and test admissibility.

    It does not use the transfer counter: each block of words is counted
    over each check's shapes by `_pattern_counts`, one wrap-extended slice
    per shape point (as `empirical_counts` counts one word), and
    `is_admissible`'s test runs once per distinct count vector of a check.
    Its eps > 0 verdicts stay on the distance LP, so they check the
    counter's transport bounds.
    """
    eps, side = _checked_eps(eps), _whole(side, "side")
    if side < 1:
        raise ValidationError("side must be >= 1")
    checks = _checks(system)
    q, dim = checks[0][1].alphabet.size, checks[0][0][0].dim
    ncells = side ** dim
    nwords = q ** ncells
    if nwords > MAX_ENUMERATION:
        raise SizeGuardError("exhaustive enumeration too large")
    # per check: its shapes, its verdicts
    tests = [(shapes, gamma, {}) for shapes, gamma in checks]
    digits = q ** np.arange(ncells - 1, -1, -1)  # cell 0 most significant
    count = 0
    for start in range(0, nwords, _ENUMERATION_BLOCK):
        index = np.arange(start, min(start + _ENUMERATION_BLOCK, nwords))
        words = index[:, None] // digits % q
        ok = np.ones(len(words), dtype=bool)
        for shapes, gamma, seen in tests:
            counts = _pattern_counts(words, shapes, side, q, gamma.npatterns)
            vecs, inverse = np.unique(counts, axis=0, return_inverse=True)
            verdicts = []
            for vec in vecs:
                key = vec.tobytes()
                if key not in seen:
                    seen[key] = _counts_admissible(vec, ncells * len(shapes), gamma, eps)
                verdicts.append(seen[key])
            ok &= np.array(verdicts)[inverse.reshape(-1)]
        count += int(ok.sum())
    return count


def find_admissible_word(side: int, system, eps: float = 0.0,
                         prefix: Sequence[int] = ()) -> Word | None:
    """First admissible word in lexicographic cell order that starts with
    `prefix`, or None."""
    transfer = _Transfer(side, system, eps)
    if len(prefix) > len(transfer.steps) or any(a not in range(transfer.q) for a in prefix):
        raise ValidationError("prefix must be at most side^d symbols in 0..q-1")
    return transfer.first_word(prefix=prefix)
