"""Semiconstrained systems: constraint polytopes, admissibility, counting.

A system is a polytope Γ of pattern distributions over one shape
(`ConstraintSet`), or a family of one-dimensional polytopes applied along
each axis of a d-dimensional array (`AxialSystem`, in either *strict*
per-axis mode or *weak* axis-averaged mode).  A word is admissible at slack
ε when its empirical pattern distribution lies within total-variation
distance ε of Γ.

Counting is exact: admissibility of a word is decided from integer pattern
counts by rational-arithmetic comparisons when ε = 0, and the backtracking
counter prunes on partial counts using the same exact comparisons, so the
pruned and exhaustive counters agree word for word.
"""
from __future__ import annotations

import itertools
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
# Even the pruned counter refuses search spaces beyond roughly this many words.
MAX_SEARCH_BITS = 60


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
    the probability simplex, which is implicit)."""

    alphabet: Alphabet
    shape: Shape
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self) -> None:
        m = pattern_space_size(self.alphabet, self.shape)
        cs = tuple(self.constraints)
        for c in cs:
            if len(c.coeffs) != m:
                raise ValidationError("constraint coefficient length mismatch")
        object.__setattr__(self, "constraints", cs)

    @property
    def npatterns(self) -> int:
        return pattern_space_size(self.alphabet, self.shape)

    def contains(self, dist: PatternDistribution, tol: float = FEASIBILITY_TOL) -> bool:
        probs = dist.float_probs()
        return all(c.satisfied(probs, tol) for c in self.constraints)

    def feasible_point(self) -> PatternDistribution:
        """Some distribution in the polytope (raises EmptySystemError if none)."""
        m = self.npatterns
        a_ub, b_ub, a_eq, b_eq = [], [], [np.ones(m)], [1.0]
        for c in self.constraints:
            if c.sense == "<=":
                a_ub.append(c.coeffs)
                b_ub.append(c.bound)
            else:
                a_eq.append(c.coeffs)
                b_eq.append(c.bound)
        res = solve_lp(
            np.zeros(m),
            a_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if a_ub else None,
            a_eq=np.array(a_eq),
            b_eq=np.array(b_eq),
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
            for f in fs[1:]:
                same = (
                    f is first
                    or (f.shape == first.shape
                        and f.alphabet == first.alphabet
                        and len(f.constraints) == len(first.constraints)
                        and all(
                            a.sense == b.sense and a.bound == b.bound
                            and np.array_equal(a.coeffs, b.coeffs)
                            for a, b in zip(f.constraints, first.constraints)
                        ))
                )
                if not same:
                    raise ValidationError(
                        "weak mode requires a single common factor set"
                    )
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

def _forbids_patterns(con: LinearConstraint) -> bool:
    """Is this a zero-bound row with 0/1 coefficients?  Such a row forbids
    each pattern it charges outright, whichever sense it is written with."""
    return con.bound == 0.0 and bool(np.all((con.coeffs == 0.0) | (con.coeffs == 1.0)))


def _single_set_cap(gamma: ConstraintSet):
    """If Γ is 'mass of a pattern set A at most b' (an all-equality-zero
    system is the b = 0 case), return (indicator of A, b); else None."""
    cs = gamma.constraints
    if not cs:
        return np.zeros(gamma.npatterns), np.inf
    if len(cs) == 1 and cs[0].sense == "<=":
        c = cs[0].coeffs
        if np.all((c == 0.0) | (c == 1.0)) and (c == 0.0).any():
            return c, float(cs[0].bound)
        return None
    if all(c.sense == "==" and _forbids_patterns(c) for c in cs):
        ind = np.zeros(gamma.npatterns)
        for c in cs:
            ind = np.maximum(ind, c.coeffs)
        if (ind == 0.0).any():
            return ind, 0.0
    return None


def tv_distance_to_set(mu: PatternDistribution, gamma: ConstraintSet) -> float:
    """Total-variation distance from mu to the polytope Γ.

    Solved as a linear program (L1 distance linearised with one auxiliary
    variable per pattern); the closed form for a single mass-cap constraint
    is used as a short cut when it applies.
    """
    if mu.shape != gamma.shape or mu.alphabet != gamma.alphabet:
        raise ValidationError("distribution and constraint set shapes differ")
    probs = mu.float_probs()
    cap = _single_set_cap(gamma)
    if cap is not None:
        ind, b = cap
        return max(0.0, float(ind @ probs) - b)

    m = gamma.npatterns
    # variables z = (nu, t);  minimise (1/2) sum t
    c = np.concatenate([np.zeros(m), 0.5 * np.ones(m)])
    eye = np.eye(m)
    a_ub = [np.hstack([eye, -eye]), np.hstack([-eye, -eye])]
    b_ub = [probs, -probs]
    a_eq = [np.concatenate([np.ones(m), np.zeros(m)])]
    b_eq = [1.0]
    for con in gamma.constraints:
        row = np.concatenate([con.coeffs, np.zeros(m)])
        if con.sense == "<=":
            a_ub.append(row[None, :])
            b_ub.append(np.array([con.bound]))
        else:
            a_eq.append(row)
            b_eq.append(con.bound)
    res = solve_lp(
        c,
        a_ub=np.vstack([np.atleast_2d(r) for r in a_ub]),
        b_ub=np.concatenate([np.atleast_1d(b) for b in b_ub]),
        a_eq=np.vstack(a_eq),
        b_eq=np.array(b_eq, dtype=np.float64),
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
    if eps < 0:
        raise ValidationError("eps must be >= 0")
    for shapes, gamma in _checks(system):
        counts = sum(empirical_counts(word, s) for s in shapes)
        total = word.side ** word.dim * len(shapes)
        if eps == 0:
            ok = all(_exact_row_check(counts, c, total) for c in gamma.constraints)
        else:
            mu = PatternDistribution(gamma.alphabet, gamma.shape, counts / total)
            ok = tv_distance_to_set(mu, gamma) <= eps + FEASIBILITY_TOL
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# Counting engine
# ---------------------------------------------------------------------------
#
# The counter walks cells in row-major order.  Each "window group" is a set
# of placements of one shape; a placement's pattern becomes known exactly
# when its latest (in assignment order) cell is filled, at which point the
# placement contributes to running pattern counts.  Monitored rows with
# nonnegative integer weights and a budget are checked after every
# contribution, which prunes entire subtrees; the precise admissibility
# condition is re-checked at the leaves, where the running counts equal the
# full empirical counts.

@dataclass
class _Group:
    offsets: list[list[int]]   # per placement: flat cell indices, in shape-point order
    npatterns: int


@dataclass
class _Row:
    groups: list[int]
    weights: np.ndarray        # integer weight per pattern (object dtype), shared by the groups
    budget: Fraction           # prune/test:  sum over groups of weights.counts <= budget
    prunable: bool
    sense: str                 # "<=" or "==": leaf semantics at eps = 0


def _scale_row(groups: list[int], coeffs: np.ndarray, bound: Fraction,
               scale: int, sense: str, eps: float) -> _Row:
    """Turn a constraint on (averaged) distributions into an integer-weight
    row on raw pattern counts.

    `scale` is the factor relating counts to probabilities (placements per
    word, times the number of averaged groups), so the exact test of
    c.mu (<=) b becomes  sum(weights.counts) <= b * scale * common  with
    integer weights = c * common.  For eps > 0 the budget is relaxed by the
    worst-case constraint movement within a TV ball of radius eps.
    """
    fracs = [_decimal(c) for c in coeffs]
    common = math.lcm(*(f.denominator for f in fracs))
    weights = np.array([int(f * common) for f in fracs], dtype=object)
    allw = [int(w) for w in weights]
    nonneg = all(w >= 0 for w in allw)
    wmax, wmin = max(allw), min(allw)
    # the leaf test accepts distance <= eps + FEASIBILITY_TOL, so the prune
    # budget must be relaxed by at least that much to stay conservative
    eps_frac = Fraction(float(eps)) + Fraction(FEASIBILITY_TOL)

    if sense == "<=":
        prunable = nonneg
        budget = bound * scale * common
        if eps:
            budget += eps_frac * (wmax - wmin) * scale
    else:  # "=="
        budget = bound * scale * common
        prunable = nonneg and bound == 0
        if eps and prunable:
            # Inside the eps-ball;  c.mu <= eps * cmax  is a valid relaxation
            # of the distance condition for an equality-to-zero row.
            budget = eps_frac * wmax * scale
    return _Row(groups, weights, budget, prunable, sense)


class _Counter:
    """Backtracking admissible-word counter over the cube {0..n-1}^d."""

    def __init__(self, side: int, system, eps: float = 0.0, cyclic: bool = True,
                 convention: str = "tile"):
        self.side = side
        self.eps = float(eps)
        self.cyclic = cyclic
        checks = _checks(system)
        shapes, gamma = checks[0]
        self.alphabet, self.dim = gamma.alphabet, shapes[0].dim
        self.q = self.alphabet.size
        self.ncells = side ** self.dim
        self.groups: list[_Group] = []
        self.rows: list[_Row] = []
        # per check: (its groups, placements summed over them, its factor)
        self.checks: list[tuple[list[int], int, ConstraintSet]] = []
        self._build(checks, convention)

    # -- construction ------------------------------------------------------

    def _add_group(self, shape: Shape, convention: str) -> int:
        table = placements(shape, self.side, cyclic=self.cyclic,
                           slack=0 if convention == "tile" else 1)
        self.groups.append(_Group(table.tolist(),
                                  pattern_space_size(self.alphabet, shape)))
        return len(self.groups) - 1

    def _build(self, checks, convention: str) -> None:
        for shapes, gamma in checks:
            gids = [self._add_group(s, convention) for s in shapes]
            nplace = sum(len(self.groups[g].offsets) for g in gids)
            for con in gamma.constraints:
                self.rows.append(
                    _scale_row(gids, con.coeffs, _decimal(con.bound), nplace,
                               con.sense, self.eps)
                )
            self.checks.append((gids, nplace, gamma))

        # Index placements by the assignment step that completes them.
        self.by_cell: list[list[tuple[int, int]]] = [[] for _ in range(self.ncells)]
        for gi, grp in enumerate(self.groups):
            for pi, cells in enumerate(grp.offsets):
                self.by_cell[max(cells)].append((gi, pi))

        # Row weights folded per (group, pattern) for the incremental update.
        self.row_weight: list[dict[int, np.ndarray]] = [
            dict.fromkeys(row.groups, row.weights) for row in self.rows]

        space_bits = self.ncells * math.log2(self.q)
        if not any(r.prunable for r in self.rows):
            if space_bits > math.log2(MAX_ENUMERATION):
                raise SizeGuardError(
                    f"no prunable constraint and search space is 2^{space_bits:.0f} words"
                )
        elif space_bits > MAX_SEARCH_BITS:
            raise SizeGuardError(f"search space is 2^{space_bits:.0f} words")

    # -- search ------------------------------------------------------------

    def count(self, prefix: Sequence[int] = ()) -> int:
        return self._run(list(prefix), first=False)

    def first_word(self, prefix: Sequence[int] = ()) -> Word | None:
        self._run(list(prefix), first=True)
        return self._found

    def _run(self, prefix, first) -> int:
        self._assign = np.full(self.ncells, -1, dtype=np.int64)
        self._counts = [np.zeros(g.npatterns, dtype=np.int64) for g in self.groups]
        self._partial = [Fraction(0)] * len(self.rows)
        self._found: Word | None = None
        self._first = first
        return self._dfs(0, prefix)

    def _apply(self, t: int) -> tuple[list[tuple[int, int]], bool]:
        """Record placements completed by cell t; returns (contributions, dead)."""
        done = []
        dead = False
        assign = self._assign
        for gi, pi in self.by_cell[t]:
            grp = self.groups[gi]
            idx = 0
            for cell in grp.offsets[pi]:
                idx = idx * self.q + assign[cell]
            self._counts[gi][idx] += 1
            done.append((gi, idx))
        if done:
            for ri, row in enumerate(self.rows):
                if not row.prunable:
                    continue
                wmap = self.row_weight[ri]
                inc = 0
                for gi, idx in done:
                    w = wmap.get(gi)
                    if w is not None:
                        inc += int(w[idx])
                if inc:
                    self._partial[ri] += inc
                    if self._partial[ri] > row.budget:
                        dead = True
        return done, dead

    def _unapply(self, done) -> None:
        for gi, idx in done:
            self._counts[gi][idx] -= 1
        for ri, row in enumerate(self.rows):
            if not row.prunable:
                continue
            wmap = self.row_weight[ri]
            dec = 0
            for gi, idx in done:
                w = wmap.get(gi)
                if w is not None:
                    dec += int(w[idx])
            if dec:
                self._partial[ri] -= dec

    def _dfs(self, t: int, prefix) -> int:
        if t == self.ncells:
            if self._leaf_ok():
                if self._first:
                    cells = self._assign.reshape((self.side,) * self.dim).copy()
                    self._found = Word(self.alphabet, cells)
                return 1
            return 0
        total = 0
        syms = (prefix[t],) if t < len(prefix) else range(self.q)
        for a in syms:
            self._assign[t] = a
            done, dead = self._apply(t)
            if not dead:
                total += self._dfs(t + 1, prefix)
            self._unapply(done)
            if self._first and self._found is not None:
                break
        self._assign[t] = -1
        return total

    def _leaf_ok(self) -> bool:
        if self.eps == 0:
            for ri, row in enumerate(self.rows):
                lhs = 0
                for g in row.groups:
                    cnt = self._counts[g]
                    for i in np.nonzero(cnt)[0]:
                        wi = int(row.weights[i])
                        if wi:
                            lhs += wi * int(cnt[i])
                if row.sense == "<=":
                    if lhs > row.budget:
                        return False
                elif lhs != row.budget:
                    return False
            return True
        return self._leaf_ok_eps()

    def _leaf_ok_eps(self) -> bool:
        tol = self.eps + FEASIBILITY_TOL
        for gids, nplace, gamma in self.checks:
            counts = sum(self._counts[g] for g in gids)
            mu = PatternDistribution(gamma.alphabet, gamma.shape, counts / nplace)
            if tv_distance_to_set(mu, gamma) > tol:
                return False
        return True


def _count_task(args) -> int:
    side, system, eps, cyclic, convention, prefix = args
    counter = _Counter(side, system, eps, cyclic=cyclic, convention=convention)
    return counter.count(prefix=prefix)


def _parallel_count(side, system, eps, cyclic, convention, threads) -> int:
    import concurrent.futures

    probe = _Counter(side, system, eps, cyclic=cyclic, convention=convention)
    q = probe.q
    depth = min(probe.ncells, max(1, math.ceil(math.log(max(2, threads), q))))
    prefixes = list(itertools.product(range(q), repeat=depth))
    jobs = [(side, system, eps, cyclic, convention, list(p)) for p in prefixes]
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as ex:
        return sum(ex.map(_count_task, jobs))


def count_admissible(side: int, system, eps: float = 0.0, *,
                     threads: int = 1) -> int:
    """Exact number of admissible side^d words (cyclic windows).

    The search space is partitioned across workers by the first assigned
    cells when threads > 1; the result does not depend on the thread count.
    """
    if side < 1:
        raise ValidationError("side must be >= 1")
    if threads > 1:
        return _parallel_count(side, system, eps, True, "tile", threads)
    return _Counter(side, system, eps).count()


def count_admissible_noncyclic(side: int, system, *,
                               convention: str = "tile",
                               threads: int = 1) -> int:
    """Exact number of words with no forbidden pattern at any non-wrapping
    placement.

    The system (a `ConstraintSet`, or an `AxialSystem` whose factors all
    qualify) must be fully constrained: every constraint forbids single
    patterns outright.  Two placement-index conventions are in use for a
    window of extent k-1 per axis: "tile" slides over all n-k+1 offsets per
    axis, so windows cover the whole cube, while "halfopen" stops one
    offset short (n-k per axis), leaving the trailing window unchecked.
    """
    if convention not in ("tile", "halfopen"):
        raise ValidationError(f"unknown convention {convention!r}")
    if not all(_forbids_patterns(c) for _, f in _checks(system) for c in f.constraints):
        raise ValidationError("non-cyclic counting needs a fully-constrained system")
    if threads > 1:
        return _parallel_count(side, system, 0.0, False, convention, threads)
    return _Counter(side, system, 0.0, cyclic=False, convention=convention).count()


def count_exhaustive(side: int, system, eps: float = 0.0) -> int:
    """Reference counter: enumerate every word and test admissibility."""
    shapes, gamma = _checks(system)[0]
    alphabet, dim = gamma.alphabet, shapes[0].dim
    ncells = side ** dim
    if alphabet.size ** ncells > MAX_ENUMERATION:
        raise SizeGuardError("exhaustive enumeration too large")
    count = 0
    for cells in itertools.product(range(alphabet.size), repeat=ncells):
        w = Word(alphabet, np.array(cells, dtype=np.int64).reshape((side,) * dim))
        if is_admissible(w, system, eps):
            count += 1
    return count


def find_admissible_word(side: int, system, eps: float = 0.0,
                         prefix: Sequence[int] = ()) -> Word | None:
    """First admissible word in lexicographic cell order, or None."""
    return _Counter(side, system, eps).first_word(prefix=prefix)
