"""Cyclic arrays, pattern statistics, and measures on finite pattern spaces.

Everything downstream works with three kinds of objects:

* `Word` — a d-dimensional array of symbols with side length n, always read
  cyclically (all coordinates mod n);
* `PatternDistribution` — a probability vector over the patterns of a finite
  `Shape`, either floating point or exact rational;
* `SiteProductMeasure` — an independent per-cell measure on the same cube.

Pattern indexing is positional: the points of a shape are kept in sorted
(lexicographic) order, and a pattern's index is its base-|Σ| value with the
first point as the most significant digit; `pattern_from_index` inverts it.

A cyclic window at origin v reads the cells v + s mod side for the
shape's points s.  The placement table of `placements` lists them: one
row per placement, holding the flat (row-major) cell indices of the
shape's points in shape order.  Averaged marginals, the exact counter
and the product-measure optimiser read windows through it.  Pattern
counts of words (`empirical_counts` and its stacked form
`_pattern_counts`) read the same windows as slices of the words extended
by wrap-around, one slice per shape point; tests pin them to the table.

Empirical statistics are computed in exact integer/rational arithmetic
(`fractions.Fraction` with denominator n^d); floating point enters only when
a caller asks for floats or computes entropies.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "SizeGuardError",
    "Alphabet",
    "Shape",
    "Word",
    "cell_dtype",
    "PatternDistribution",
    "SiteProductMeasure",
    "pattern_index",
    "pattern_from_index",
    "placements",
    "empirical_counts",
    "empirical_distribution",
    "marginal",
    "averaged_marginal",
    "tv_distance",
    "entropy",
    "product_entropy",
]

# Refuse to materialise pattern spaces larger than this many entries.
MAX_PATTERN_SPACE = 1 << 26
# Largest temporary (in floats) that averaging over placements builds.
_BLOCK_FLOATS = 1 << 22

LOG2 = math.log(2.0)


class ValidationError(ValueError):
    """Raised when an input fails a structural precondition."""


class SizeGuardError(RuntimeError):
    """Raised when a requested enumeration would be infeasibly large."""


def _checked_eps(eps) -> float:
    """The slack eps as a float; raises ValidationError unless it is
    finite and >= 0."""
    eps = float(eps)
    if not (eps >= 0 and math.isfinite(eps)):
        raise ValidationError("eps must be finite and >= 0")
    return eps


def _whole(x, what: str) -> int:
    """x as an int; raises ValidationError unless it is a whole number."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ValidationError(f"{what} must be a whole number, got {x!r}")
    return n


# ---------------------------------------------------------------------------
# Alphabets, shapes, words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alphabet:
    """Finite ordered alphabet; symbols are addressed by index 0..q-1."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 1:
            raise ValidationError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be distinct")

    @classmethod
    def binary(cls) -> "Alphabet":
        return cls(("0", "1"))

    @classmethod
    def of_size(cls, q: int) -> "Alphabet":
        if q < 1:
            raise ValidationError("alphabet size must be positive")
        if q <= 10:
            return cls(tuple(str(i) for i in range(q)))
        return cls(tuple(f"s{i}" for i in range(q)))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValidationError(f"symbol {symbol!r} not in alphabet") from None


@dataclass(frozen=True)
class Shape:
    """A finite set of lattice points, kept sorted lexicographically.

    The sorted order fixes the digit order used by pattern indexing, so two
    shapes with the same point set are interchangeable everywhere.
    """

    points: tuple[tuple[int, ...], ...]

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = sorted({tuple(int(c) for c in p) for p in points})
        if not pts:
            raise ValidationError("shape must be nonempty")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise ValidationError("all shape points must share one dimension")
        object.__setattr__(self, "points", tuple(pts))

    @classmethod
    def segment(cls, k: int) -> "Shape":
        """The k consecutive points 0..k-1 of the 1-D lattice (k >= 1)."""
        return cls((i,) for i in range(k))

    @classmethod
    def box(cls, side: int, dim: int) -> "Shape":
        """The full cube {0..side-1}^dim."""
        return cls(itertools.product(range(side), repeat=dim))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point: Sequence[int]) -> bool:
        return tuple(point) in set(self.points)

    def is_subshape_of(self, other: "Shape") -> bool:
        return set(self.points) <= set(other.points)

    def translate(self, v: Sequence[int]) -> "Shape":
        v = tuple(v)
        return Shape(tuple(c + dv for c, dv in zip(p, v)) for p in self.points)


def cell_dtype(alphabet: Alphabet) -> type:
    """The dtype a `Word` stores its cells in: one byte a cell for
    alphabets of at most 256 symbols, int64 beyond."""
    return np.uint8 if alphabet.size <= 256 else np.int64


@dataclass(frozen=True, eq=False)
class Word:
    """A side^dim array of symbol indices, read cyclically.

    `cells` may be given as bools, integers, or integral floats; it is
    stored as `cell_dtype(alphabet)`.
    """

    alphabet: Alphabet
    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.ndim < 1:
            raise ValidationError("word must be at least 1-dimensional")
        n = cells.shape[0]
        if any(s != n for s in cells.shape):
            raise ValidationError("word must be a cube (equal side lengths)")
        if cells.dtype.kind == "f":
            if not np.array_equal(cells, np.trunc(cells)):
                raise ValidationError("cell values must be integers")
        elif cells.dtype.kind not in "biu":
            raise ValidationError(f"cell values of dtype {cells.dtype} are not integers")
        if cells.size and (cells.min() < 0 or cells.max() >= self.alphabet.size):
            raise ValidationError("cell values out of alphabet range")
        object.__setattr__(self, "cells",
                           cells.astype(cell_dtype(self.alphabet), copy=False))

    @classmethod
    def from_string(cls, s: str, alphabet: Alphabet | None = None) -> "Word":
        alphabet = alphabet or Alphabet.binary()
        return cls(alphabet, np.array([alphabet.index(c) for c in s], dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.cells.ndim

    @property
    def side(self) -> int:
        return self.cells.shape[0]

    def __str__(self) -> str:
        if self.dim == 1:
            return "".join(self.alphabet.symbols[i] for i in self.cells)
        return np.array2string(self.cells)


# ---------------------------------------------------------------------------
# Pattern indexing
# ---------------------------------------------------------------------------

def pattern_index(digits: Sequence[int], q: int) -> int:
    """Base-q value of a digit tuple, first digit most significant."""
    idx = 0
    for d in digits:
        idx = idx * q + int(d)
    return idx


def pattern_from_index(index: int, q: int, npoints: int) -> tuple[int, ...]:
    """Inverse of `pattern_index` for a pattern on `npoints` points."""
    digits = []
    for _ in range(npoints):
        index, r = divmod(index, q)
        digits.append(r)
    return tuple(reversed(digits))


def pattern_space_size(alphabet: Alphabet, shape: Shape) -> int:
    size = alphabet.size ** len(shape)
    if size > MAX_PATTERN_SPACE:
        raise SizeGuardError(
            f"pattern space of size {alphabet.size}^{len(shape)} exceeds guard"
        )
    return size


def placements(shape: Shape, side: int, *, cyclic: bool = True,
               slack: int = 0) -> np.ndarray:
    """The placement table of `shape` in the cube {0..side-1}^dim: one row
    per origin v (row-major), holding the flat cells of v + s for the
    shape's points s in order.  Cyclic placements reduce v + s mod side.
    Non-cyclic ones move the shape to a zero minimum and keep the origins
    whose windows fit, stopping `slack` offsets short of the far edge
    ("tile" is slack 0, "halfopen" slack 1)."""
    pts = np.array(shape.points, dtype=np.int64)
    dim = pts.shape[1]
    if cyclic:
        tops = (side,) * dim
    else:
        pts = pts - pts.min(axis=0)
        tops = tuple(int(t) for t in side - pts.max(axis=0) - slack)
        if min(tops) < 1:
            raise ValidationError("side too small for non-cyclic windows")
    origins = np.indices(tops).reshape(dim, -1).T
    cells = origins[:, None, :] + pts[None, :, :]
    if cyclic:
        cells %= side
    return cells @ side ** np.arange(dim - 1, -1, -1)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def _clean_probs(probs) -> np.ndarray:
    """Validate/normalise a probability vector; accepts floats or Fractions."""
    arr = np.asarray(probs)
    if arr.ndim != 1:
        raise ValidationError("probability vector must be 1-dimensional")
    if arr.dtype == object:
        entries = [Fraction(x) for x in arr]
        if any(x < 0 for x in entries):
            raise ValidationError("negative probability in exact vector")
        if sum(entries) != 1:
            raise ValidationError("exact probability vector must sum to 1")
        out = np.empty(len(entries), dtype=object)
        out[:] = entries
        return out
    arr = np.asarray(arr, dtype=np.float64).copy()
    if arr.min(initial=0.0) < -1e-12:
        raise ValidationError("negative probability entry")
    np.clip(arr, 0.0, None, out=arr)
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"probabilities sum to {arr.sum()!r}, not 1")
    return arr


@dataclass(frozen=True, eq=False)
class PatternDistribution:
    """A probability distribution over the patterns of one shape.

    `probs[i]` is the probability of the pattern with index i.  The vector is
    float64 for measures produced by optimisation, and an object array of
    `fractions.Fraction` for exact empirical statistics; `is_exact` tells the
    two apart and `float_probs()` converts on the way out.
    """

    alphabet: Alphabet
    shape: Shape
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = _clean_probs(self.probs)
        if len(probs) != pattern_space_size(self.alphabet, self.shape):
            raise ValidationError("probability vector has wrong length for shape")
        object.__setattr__(self, "probs", probs)

    @property
    def is_exact(self) -> bool:
        return self.probs.dtype == object

    def float_probs(self) -> np.ndarray:
        if self.is_exact:
            return np.array([float(x) for x in self.probs], dtype=np.float64)
        return self.probs

    def prob(self, pattern: Sequence[int]) -> float | Fraction:
        return self.probs[pattern_index(pattern, self.alphabet.size)]

    @classmethod
    def uniform(cls, alphabet: Alphabet, shape: Shape) -> "PatternDistribution":
        m = pattern_space_size(alphabet, shape)
        return cls(alphabet, shape, np.full(m, 1.0 / m))

    @classmethod
    def from_floats(cls, alphabet: Alphabet, shape: Shape, probs) -> "PatternDistribution":
        return cls(alphabet, shape, np.asarray(probs, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class SiteProductMeasure:
    """Independent per-cell measure on the cube {0..side-1}^dim.

    Row v of `site_dists` (rows in row-major position order) is the
    distribution of the symbol at position v.
    """

    alphabet: Alphabet
    dim: int
    side: int
    site_dists: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.site_dists, dtype=np.float64).copy()
        ncells = self.side ** self.dim
        if rows.shape != (ncells, self.alphabet.size):
            raise ValidationError(
                f"site_dists must have shape ({ncells}, {self.alphabet.size})"
            )
        if not np.isfinite(rows).all():
            raise ValidationError("site probabilities must be finite")
        if rows.min(initial=0.0) < -1e-12:
            raise ValidationError("negative site probability")
        np.clip(rows, 0.0, None, out=rows)
        if np.abs(rows.sum(axis=1) - 1.0).max(initial=0.0) > 1e-9:
            raise ValidationError("site distributions must sum to 1")
        object.__setattr__(self, "site_dists", rows)

    @classmethod
    def uniform(cls, alphabet: Alphabet, dim: int, side: int) -> "SiteProductMeasure":
        q = alphabet.size
        rows = np.full((side ** dim, q), 1.0 / q)
        return cls(alphabet, dim, side, rows)

    @classmethod
    def point_mass(cls, word: Word) -> "SiteProductMeasure":
        q = word.alphabet.size
        flat = word.cells.reshape(-1)
        rows = np.zeros((flat.size, q))
        rows[np.arange(flat.size), flat] = 1.0
        return cls(word.alphabet, word.dim, word.side, rows)

    def tile(self, side: int) -> "SiteProductMeasure":
        """The one rule for a 1-D measure on a longer cycle: site v of the
        length-`side` cycle, a multiple of self.side, takes row v mod self.side."""
        if self.dim != 1:
            raise ValidationError("only a 1-D measure tiles a longer cycle")
        if side % self.side:
            raise ValidationError(f"side {side} is not a multiple of {self.side}")
        rows = np.tile(self.site_dists, (side // self.side, 1))
        return SiteProductMeasure(self.alphabet, 1, side, rows)


# ---------------------------------------------------------------------------
# Empirical statistics
# ---------------------------------------------------------------------------

def empirical_counts(word: Word, shape: Shape) -> np.ndarray:
    """Pattern occurrence counts of `word` over all cyclic placements of `shape`.

    Parameters
    ----------
    word : Word
        A side^dim cyclic array.
    shape : Shape
        Finite point set with the same dimension as the word.  Placements are
        indexed by all side^dim positions v, and every coordinate of v + s is
        reduced mod side: the word is extended by wrap-around and each
        shape point reads one slice of it (`_pattern_counts`).

    Returns
    -------
    numpy.ndarray
        Integer vector of length |Σ|^|shape|; entry i counts the placements
        showing the pattern with index i.  Entries sum to side^dim.
    """
    if shape.dim != word.dim:
        raise ValidationError(
            f"shape dimension {shape.dim} != word dimension {word.dim}"
        )
    m = pattern_space_size(word.alphabet, shape)
    return _pattern_counts(word.cells.reshape(1, -1), [shape], word.side,
                           word.alphabet.size, m)[0]


def _pattern_counts(cells: np.ndarray, shapes: Sequence[Shape], side: int, q: int,
                    m: int) -> np.ndarray:
    """Counts of the m patterns of `shapes` (all of one size), summed over
    the shapes, in each row of a stack of flat side^dim cubes (S, ncells),
    over all cyclic placements, first point most significant, as an (S, m)
    int64 array.

    Each axis of the cubes is extended cyclically by the largest offset
    (mod side) on it among the shapes' points, so the cell at v + s of
    every placement v is the extended cube's slice at s mod side, and a
    shape's pattern codes are built from one slice per point.  Codes take
    the narrowest unsigned dtype holding S·m (bincount refuses uint64, so
    intp beyond uint32), and one `bincount` counts the whole stack: row
    s's codes are offset by s * m (m = q^k for shapes of k points)."""
    s = len(cells)
    dtype = np.min_scalar_type(max(s * m - 1, 0))
    if dtype.itemsize > 4:
        dtype = np.dtype(np.intp)
    offsets = [[[c % side for c in p] for p in shape.points] for shape in shapes]
    dim = len(offsets[0][0])
    cube = cells.astype(dtype, copy=False).reshape((s,) + (side,) * dim)
    for axis in range(1, dim + 1):
        ext = max(p[axis - 1] for offs in offsets for p in offs)
        head = cube[(slice(None),) * axis + (slice(0, ext),)]
        cube = np.concatenate((cube, head), axis=axis)
    rows = np.arange(s, dtype=dtype).reshape((s,) + (1,) * dim)
    codes = np.empty((len(shapes), s) + (side,) * dim, dtype)
    for code, offs in zip(codes, offsets):
        # Horner from the row index: row s's codes end at s * q^k + pattern
        code[...] = rows
        for point in offs:
            code *= q
            code += cube[(slice(None),) + tuple(slice(c, c + side) for c in point)]
    counts = np.bincount(codes.reshape(-1), minlength=s * m)
    return counts.astype(np.int64, copy=False).reshape(s, m)


def empirical_distribution(word: Word, shape: Shape) -> PatternDistribution:
    """Exact empirical pattern distribution of `word` over `shape`.

    Entries are `Fraction(count, side**dim)`; see `empirical_counts` for the
    placement convention.
    """
    counts = empirical_counts(word, shape)
    total = word.side ** word.dim
    probs = np.empty(len(counts), dtype=object)
    probs[:] = [Fraction(int(c), total) for c in counts]
    return PatternDistribution(word.alphabet, shape, probs)


def _restriction_map(alphabet: Alphabet, shape: Shape, sub: Shape) -> np.ndarray:
    """index over `shape` -> index over `sub`, for sub a subset of shape."""
    if not sub.is_subshape_of(shape):
        raise ValidationError("marginal target must be a subset of the shape")
    q = alphabet.size
    m = len(shape)
    pos = {p: j for j, p in enumerate(shape.points)}
    keep = [pos[p] for p in sub.points]
    full = np.arange(pattern_space_size(alphabet, shape))
    digits = np.empty((m, len(full)), dtype=np.int64)
    rem = full.copy()
    for j in range(m - 1, -1, -1):
        rem, digits[j] = np.divmod(rem, q)
    out = np.zeros(len(full), dtype=np.int64)
    for j in keep:
        out = out * q + digits[j]
    return out


def marginal(dist: PatternDistribution, sub: Shape) -> PatternDistribution:
    """Restrict a pattern distribution to a subshape (exactness is preserved)."""
    sub = Shape(sub.points)
    mapping = _restriction_map(dist.alphabet, dist.shape, sub)
    msub = pattern_space_size(dist.alphabet, sub)
    if dist.is_exact:
        acc = [Fraction(0)] * msub
        for i, p in enumerate(dist.probs):
            acc[mapping[i]] += p
        probs = np.empty(msub, dtype=object)
        probs[:] = acc
        return PatternDistribution(dist.alphabet, sub, probs)
    probs = np.bincount(mapping, weights=dist.probs, minlength=msub)
    return PatternDistribution(dist.alphabet, sub, probs)


def averaged_marginal(mu: SiteProductMeasure, shape: Shape) -> PatternDistribution:
    """Placement-averaged pattern distribution of a site-product measure.

    For each of the side^dim placements v of `shape` (cyclic), the product
    measure induces a distribution on the patterns of `shape`:

        P_v(a) = prod_j  p_{(s_j + v) mod side}(a_j).

    The result is the average of P_v over all v — exactly the distribution
    against which a sampled word's empirical statistics concentrate.

    Returns
    -------
    PatternDistribution
        Float-valued distribution over the patterns of `shape`.
    """
    if shape.dim != mu.dim:
        raise ValidationError(
            f"shape dimension {shape.dim} != measure dimension {mu.dim}"
        )
    pattern_space_size(mu.alphabet, shape)  # size guard before any law is built
    probs = _window_law(mu.site_dists, placements(shape, mu.side))
    return PatternDistribution(mu.alphabet, shape, probs)


def _window_law(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Mean over the placements of `table` of the pattern law that the
    per-cell distributions `rows` induce: the outer product of the cells'
    rows, first point most significant.  `rows` is one measure's (n, q),
    giving the law (m,), or a stack (S, n, q) of them, giving (S, m) with
    each law exactly as if alone; an empty stack gives (0, m).  Blocks of
    placements keep every temporary within `_BLOCK_FLOATS` floats, and each
    block's sum starts from the running total, so the sum is sequential
    whatever the block."""
    stack = rows[None] if rows.ndim == 2 else rows
    nplace, k = table.shape
    s, _, q = stack.shape
    m = q ** k
    block = max(1, _BLOCK_FLOATS // max(1, s * m))
    total = np.zeros((s, m))
    for start in range(0, nplace, block):
        cols = table[start:start + block].T
        law = stack[:, cols[0]]
        for col in cols[1:]:
            law = (law[:, :, :, None] * stack[:, col][:, :, None, :]).reshape(
                s, len(col), law.shape[2] * q)
        law[:, 0] += total
        total = law.sum(axis=1)
    total /= nplace
    return total[0] if rows.ndim == 2 else total


# ---------------------------------------------------------------------------
# Distances and entropies
# ---------------------------------------------------------------------------

def tv_distance(p: PatternDistribution, q: PatternDistribution) -> float:
    """Total variation distance (half the L1 distance); exact inputs are
    compared in exact arithmetic before the final float conversion."""
    if p.shape != q.shape or p.alphabet != q.alphabet:
        raise ValidationError("distributions must share shape and alphabet")
    if p.is_exact and q.is_exact:
        return float(sum(abs(a - b) for a, b in zip(p.probs, q.probs)) / 2)
    a, b = p.float_probs(), q.float_probs()
    return 0.5 * float(np.abs(a - b).sum())


def _entropy_vec(probs: np.ndarray):
    """Shannon entropy in bits of a distribution, or of each row (last axis)
    of a stack of them, each exactly as if alone.  Rows of fewer than 8
    terms are summed as one stack, zero terms included: numpy adds fewer
    than 8 terms in order, so a zero term changes nothing."""
    if probs.ndim > 1:
        if probs.shape[-1] < 8:
            terms = probs * np.log(np.where(probs > 0.0, probs, 1.0))
            return -terms.sum(axis=-1) / LOG2
        flat = probs.reshape(-1, probs.shape[-1])
        return np.array([_entropy_vec(r) for r in flat]).reshape(probs.shape[:-1])
    pos = probs[probs > 0]
    if len(pos) == 0:
        return 0.0
    return float(-(pos * np.log(pos)).sum() / LOG2)


def entropy(dist: PatternDistribution) -> float:
    """Shannon entropy in bits."""
    return _entropy_vec(dist.float_probs())


def product_entropy(mu: SiteProductMeasure) -> float:
    """Total entropy of a site-product measure: the sum of per-site entropies, in bits."""
    return float(sum(_entropy_vec(row) for row in mu.site_dists))
