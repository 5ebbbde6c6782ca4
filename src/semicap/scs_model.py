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
from dataclasses import dataclass, field
from fractions import Fraction
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

@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """One linear condition  coeffs . mu  (<=|==)  bound  on a distribution."""

    coeffs: np.ndarray
    bound: float
    sense: str = "<="

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.sense not in ("<=", "=="):
            raise ValidationError(f"unknown constraint sense {self.sense!r}")
        if not (np.isfinite(coeffs).all() and math.isfinite(self.bound)):
            raise ValidationError("constraint coefficients and bound must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, probs: np.ndarray) -> float:
        return float(self.coeffs @ probs)

    def satisfied(self, probs: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
        v = self.evaluate(probs)
        if self.sense == "<=":
            return v <= self.bound + tol
        return abs(v - self.bound) <= tol


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """A polytope of pattern distributions over one shape (intersected with
    the probability simplex, which is implicit).

    The rows are also held as read-only arrays, built once: `coeffs`
    (rows x patterns), `bounds`, and `equal` (True on `==` rows), in the
    order of `constraints`.  The float engines read these, and two fields
    that say once what the rows mean, however they are written
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
        probs = dist.float_probs()
        return all(c.satisfied(probs, tol) for c in self.constraints)

    def feasible_point(self) -> PatternDistribution:
        """Some distribution in the polytope (raises EmptySystemError if none)."""
        m, eq = self.npatterns, self.equal
        res = solve_lp(
            np.zeros(m),
            a_ub=self.coeffs[~eq],
            b_ub=self.bounds[~eq],
            a_eq=np.vstack([np.ones(m), self.coeffs[eq]]),
            b_eq=np.concatenate([[1.0], self.bounds[eq]]),
        )
        if not res.ok:
            raise EmptySystemError("constraint set contains no distribution")
        return PatternDistribution.from_floats(self.alphabet, self.shape, res.x)


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


def rll_constraint(k: int, p: float) -> ConstraintSet:
    """Binary system capping the frequency of the all-ones run of length k+1.

    Words are admissible (at slack 0) iff at most a p-fraction of the cyclic
    length-(k+1) windows read 1^(k+1); p = 0 recovers the hard run-length
    constraint, and any p >= 2^-(k+1) leaves the uniform measure inside.
    """
    if k < 0:
        raise ValidationError("k must be >= 0")
    alphabet = Alphabet.binary()
    shape = Shape.segment(k + 1)
    m = 2 ** (k + 1)
    coeffs = np.zeros(m)
    coeffs[m - 1] = 1.0  # the all-ones pattern has the top index
    return ConstraintSet(alphabet, shape, (LinearConstraint(coeffs, float(p), "<="),))


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
    distribution breaks are dropped.  A row left with bound 0 forbids the
    patterns it charges, whatever its sense and weights.  With no row left
    nothing is forbidden and the cap is (zeros, inf); forbidding every
    pattern leaves no distribution, which no cap describes."""
    low, high = coeffs.min(axis=1), coeffs.max(axis=1)
    kept = ~((bounds >= high) & (~equal | (bounds == low)))
    low, span = low[kept], (high - low)[kept]
    span[span == 0.0] = 1.0   # a constant row kept here fails everywhere
    rows = (coeffs[kept] - low[:, None]) / span[:, None]
    b = (bounds[kept] - low) / span
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

def _decimal(x) -> Fraction:
    """A float bound or coefficient read as its shortest round-trip decimal,
    so 0.3 means 3/10 (`Fraction(0.3)` is the binary float, below 3/10)."""
    return Fraction(repr(float(x)))


def _exact_row_check(counts: Sequence[int], con: LinearConstraint, total: int) -> bool:
    """Exact rational test of `con` against integer pattern counts/total."""
    lhs = Fraction(0)
    for i, cnt in enumerate(counts):
        if cnt:
            c = con.coeffs[i]
            if c:
                lhs += _decimal(c) * int(cnt)
    rhs = _decimal(con.bound) * total
    if con.sense == "<=":
        return lhs <= rhs
    return lhs == rhs


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
    comparisons); for eps > 0 distances are computed to LP tolerance."""
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
# In 1-D this is the de Bruijn transfer matrix with the head kept for the
# wrap, in 2-D the row-profile transfer.

@dataclass
class _Row:
    weights: list[int]         # integer weight per pattern of the row's check
    budget: Fraction           # prune/test:  weights.counts <= budget
    prunable: bool
    sense: str                 # "<=" or "==": leaf semantics at eps = 0


def _scale_row(coeffs: np.ndarray, bound: Fraction, scale: int, sense: str,
               eps: float) -> _Row:
    """Turn a constraint on (averaged) distributions into an integer-weight
    row on raw pattern counts.

    `scale` is the factor relating counts to probabilities (placements per
    word, times the number of averaged shapes), so the exact test of
    c.mu (<=) b becomes  sum(weights.counts) <= b * scale * common  with
    integer weights = c * common.  For eps > 0 the budget of a prunable row
    is relaxed by eps times the row's `_ball_reach`.
    """
    fracs = [_decimal(c) for c in coeffs]
    common = math.lcm(*(f.denominator for f in fracs))
    weights = [int(f * common) for f in fracs]
    equal = sense == "=="
    prunable = all(w >= 0 for w in weights) and (not equal or bound == 0)
    budget = bound * scale * common
    if eps and prunable:
        # the leaf test accepts distance <= eps + FEASIBILITY_TOL, so the prune
        # budget must be relaxed by at least that much to stay conservative
        eps_frac = Fraction(float(eps)) + Fraction(FEASIBILITY_TOL)
        budget += eps_frac * _ball_reach(weights, equal) * scale
    return _Row(weights, budget, prunable, sense)


def _advance(stats: tuple, delta: tuple) -> tuple | None:
    """Statistics after the increments, or None once a capped slot exceeds
    its cap."""
    new = list(stats)
    for s, w, cap in delta:
        new[s] += w
        if new[s] > cap:
            return None
    return tuple(new)


class _Transfer:
    """Forward transfer counter over the cube {0..side-1}^d."""

    def __init__(self, side: int, system, eps: float = 0.0, cyclic: bool = True,
                 convention: str = "tile"):
        self.eps = _checked_eps(eps)
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
        # (slot, increment) pairs one placement of the check adds.
        self.rows: list[tuple[int, _Row]] = []
        self.types: list[tuple[int, int, ConstraintSet]] = []  # (first slot, placements, factor)
        self.caps: list = []                                   # per slot: prune cap
        last = np.full(ncells, -1, dtype=np.int64)             # last step reading each cell
        done: list[list] = [[] for _ in range(ncells)]         # per step: (charge, cells) completed
        for shapes, gamma in checks:
            tables = [placements(s, side, cyclic=cyclic, slack=slack) for s in shapes]
            nplace = sum(len(tab) for tab in tables)
            charge: list[list[tuple[int, int]]] = [[] for _ in range(gamma.npatterns)]
            for con in gamma.constraints:
                row = _scale_row(con.coeffs, _decimal(con.bound), nplace, con.sense,
                                 self.eps)
                if self.eps and not row.prunable:
                    continue
                self.rows.append((len(self.caps), row))
                for i, w in enumerate(row.weights):
                    if w:
                        charge[i].append((len(self.caps), w))
                self.caps.append(math.floor(row.budget) if row.prunable else math.inf)
            if self.eps:
                self.types.append((len(self.caps), nplace, gamma))
                for i in range(gamma.npatterns):
                    charge[i].append((len(self.caps) + i, 1))
                self.caps += [math.inf] * gamma.npatterns
            for tab in tables:
                np.maximum.at(last, tab, tab.max(axis=1, keepdims=True))
                for cells in tab.tolist():
                    done[max(cells)].append((charge, cells))
        self.zero = (0,) * len(self.caps)

        # Per step: the completed placements as (charge, frontier positions
        # read in shape-point order), and the positions the frontier keeps.
        self.steps: list[tuple[list, tuple[int, ...]]] = []
        frontier: list[int] = []
        last = last.tolist()
        for t in range(ncells):
            ext = frontier + [t]
            pos = {c: i for i, c in enumerate(ext)}
            keep = tuple(i for i, c in enumerate(ext) if last[c] > t)
            self.steps.append(([(ch, [pos[c] for c in cells]) for ch, cells in done[t]], keep))
            frontier = [ext[i] for i in keep]
            if len(frontier) * math.log2(self.q) > MAX_STATE_BITS:
                raise SizeGuardError(f"transfer frontier holds {len(frontier)} cells, "
                                     f"above {MAX_STATE_BITS} bits")

    def _edge(self, t: int, front: tuple, a: int):
        """The frontier after writing `a` at cell t, and the statistic
        increments as (slot, increment, cap) triples."""
        reads, keep = self.steps[t]
        ext = front + (a,)
        q = self.q
        inc: dict[int, int] = {}
        for charge, poss in reads:
            idx = 0
            for p in poss:
                idx = idx * q + ext[p]
            for slot, w in charge[idx]:
                inc[slot] = inc.get(slot, 0) + w
        caps = self.caps
        delta = tuple((s, w, caps[s]) for s, w in inc.items() if w)
        return tuple(ext[i] for i in keep), delta

    def _transfer(self, prefix: Sequence[int] = (), back: list | None = None) -> dict:
        """The final layer {(frontier, statistics): words}.  With `back`, each
        layer's first-arrival links {state: (previous state, symbol)} are
        appended to it."""
        layer = {((), self.zero): 1}
        for t in range(len(self.steps)):
            syms = (prefix[t],) if t < len(prefix) else range(self.q)
            edges: dict = {}
            nxt: dict = {}
            links: dict = {}
            for state, words in layer.items():
                front, stats = state
                for a in syms:
                    e = edges.get((front, a))
                    if e is None:
                        e = edges[front, a] = self._edge(t, front, a)
                    nfront, delta = e
                    new = _advance(stats, delta) if delta else stats
                    if new is None:
                        continue
                    key = (nfront, new)
                    if key in nxt:
                        nxt[key] += words
                    else:
                        if len(nxt) >= 1 << MAX_STATE_BITS:
                            raise SizeGuardError(
                                f"transfer layer {t} exceeds 2^{MAX_STATE_BITS} states")
                        nxt[key] = words
                        links[key] = (state, a)
            if back is not None:
                back.append(links)
            layer = nxt
        return layer

    def _accepts(self, stats: tuple, seen: dict) -> bool:
        """The exact admissibility test on one final state's statistics."""
        if not self.eps:
            for slot, row in self.rows:
                lhs = stats[slot]
                if (lhs > row.budget) if row.sense == "<=" else (lhs != row.budget):
                    return False
            return True
        for first, nplace, gamma in self.types:
            counts = stats[first:first + gamma.npatterns]
            ok = seen.get((first, counts))
            if ok is None:
                ok = seen[first, counts] = _counts_admissible(
                    np.array(counts, dtype=np.int64), nplace, gamma, self.eps)
            if not ok:
                return False
        return True

    def count(self) -> int:
        seen: dict = {}
        return sum(words for (_, stats), words in self._transfer().items()
                   if self._accepts(stats, seen))

    def first_word(self, prefix: Sequence[int] = ()) -> Word | None:
        """The lexicographically first admissible word.  States enter each
        layer in the order of the first prefix reaching them, so the first
        accepted final state's first-arrival chain spells that word."""
        back: list = []
        seen: dict = {}
        for state in self._transfer(prefix, back):
            if self._accepts(state[1], seen):
                cells = []
                for links in reversed(back):
                    state, a = links[state]
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

    It does not use the transfer counter: each word's pattern counts are
    read off the placement tables, and `is_admissible`'s test runs once per
    distinct count vector of a check.
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
    # per check: all its placements, pattern digit weights, and its verdicts
    tests = []
    for shapes, gamma in checks:
        table = np.vstack([placements(s, side) for s in shapes])
        weights = q ** np.arange(table.shape[1] - 1, -1, -1)
        tests.append((table, weights, gamma, {}))
    digits = q ** np.arange(ncells - 1, -1, -1)  # cell 0 most significant
    count = 0
    for start in range(0, nwords, _ENUMERATION_BLOCK):
        index = np.arange(start, min(start + _ENUMERATION_BLOCK, nwords))
        words = index[:, None] // digits % q
        ok = np.ones(len(words), dtype=bool)
        for table, weights, gamma, seen in tests:
            m = gamma.npatterns
            pats = words[:, table] @ weights + m * np.arange(len(words))[:, None]
            counts = np.bincount(pats.ravel(), minlength=m * len(words)).reshape(-1, m)
            vecs, inverse = np.unique(counts, axis=0, return_inverse=True)
            verdicts = []
            for vec in vecs:
                key = vec.tobytes()
                if key not in seen:
                    seen[key] = _counts_admissible(vec, len(table), gamma, eps)
                verdicts.append(seen[key])
            ok &= np.array(verdicts)[inverse.reshape(-1)]
        count += int(ok.sum())
    return count


def find_admissible_word(side: int, system, eps: float = 0.0,
                         prefix: Sequence[int] = ()) -> Word | None:
    """First admissible word in lexicographic cell order, or None."""
    return _Transfer(side, system, eps).first_word(prefix=prefix)
