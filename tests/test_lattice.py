"""Exact empirical statistics, marginals, and measure plumbing."""
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from semicap import lattice_core
from semicap.lattice_core import (
    Alphabet,
    PatternDistribution,
    Shape,
    SiteProductMeasure,
    SizeGuardError,
    ValidationError,
    Word,
    averaged_marginal,
    empirical_counts,
    empirical_distribution,
    entropy,
    marginal,
    pattern_from_index,
    pattern_index,
    placements,
    product_entropy,
    tv_distance,
)

BIN = Alphabet.binary()


def test_pattern_index_round_trip():
    for q in (2, 3, 4):
        for m in (1, 2, 3):
            for digits in itertools.product(range(q), repeat=m):
                idx = pattern_index(digits, q)
                # oracle: read the digits as a base-q numeral, most
                # significant first
                assert idx == int("".join(str(d) for d in digits), q)
                assert pattern_from_index(idx, q, m) == digits


def test_word_from_string_and_shape_basics():
    w = Word.from_string("0010111001")
    assert w.dim == 1 and w.side == 10
    assert list(w.cells) == [0, 0, 1, 0, 1, 1, 1, 0, 0, 1]
    seg = Shape.segment(3)
    assert len(seg) == 3 and seg.dim == 1
    assert Shape.segment(2).is_subshape_of(seg)
    box = Shape.box(2, 2)
    assert len(box) == 4 and box.dim == 2
    with pytest.raises(ValidationError):
        Word.from_string("0012")  # symbol outside the binary alphabet


def test_word_rejects_non_integral_cells():
    # an unsafe cast would store [0.5, 1.7] as a valid-looking [0, 1]
    for bad in ([0.5, 1.7], [0.0, np.nan], np.array(["0", "1"])):
        with pytest.raises(ValidationError):
            Word(BIN, bad)
    with pytest.raises(ValidationError):
        Word(BIN, [-1, 0])  # range is checked before the one-byte store
    for good in ([1.0, 0.0], [True, False], np.array([1, 0], dtype=np.int16)):
        assert Word(BIN, good).cells.tolist() == [1, 0]


def test_word_compact_storage():
    for q, dtype in ((2, np.uint8), (3, np.uint8), (256, np.uint8),
                     (257, np.int64)):
        w = Word(Alphabet.of_size(q), np.arange(q))
        assert w.cells.dtype == dtype
        assert w.cells.tolist() == list(range(q))
    # a 12-point binary window reaches pattern index 4095: the one-byte
    # symbols must not overflow the index arithmetic
    rng = np.random.default_rng(12)
    bits = [1] * 12 + rng.integers(0, 2, size=28).tolist()
    w = Word(BIN, bits)
    expect = [0] * 4096
    for v in range(40):
        expect[int("".join(str(bits[(v + j) % 40]) for j in range(12)), 2)] += 1
    assert expect[4095] >= 1
    assert empirical_counts(w, Shape.segment(12)).tolist() == expect
    # point masses and printing read the cells as before
    w = Word.from_string("0110")
    assert str(w) == "0110"
    np.testing.assert_array_equal(SiteProductMeasure.point_mass(w).site_dists,
                                  [[1, 0], [0, 1], [0, 1], [1, 0]])
    assert str(Word(BIN, [[0, 1], [1, 1]])) == "[[0 1]\n [1 1]]"
    assert str(Word(Alphabet.of_size(12), [11, 0])) == "s11s0"


def test_empirical_pairs_worked_example():
    # cyclic pair frequencies of 0010111001 are (1/5, 3/10, 3/10, 1/5)
    w = Word.from_string("0010111001")
    fr = empirical_distribution(w, Shape.segment(2))
    expect = [Fraction(1, 5), Fraction(3, 10), Fraction(3, 10), Fraction(1, 5)]
    assert list(fr.probs) == expect
    assert fr.is_exact


def test_empirical_triples_worked_example():
    w = Word.from_string("0010111001")
    fr = empirical_distribution(w, Shape.segment(3))
    assert fr.prob((1, 1, 0)) == Fraction(1, 10)
    assert fr.prob((0, 1, 1)) == Fraction(1, 10)
    assert fr.prob((1, 1, 1)) == Fraction(1, 10)
    assert sum(fr.probs) == 1


def test_empirical_2d_worked_example():
    # 4x4 binary array; cells[x, y] with x the first coordinate, so the
    # written matrix enters transposed
    matrix = np.array([
        [0, 1, 1, 1],
        [0, 0, 1, 1],
        [1, 0, 0, 1],
        [1, 0, 1, 0],
    ])
    w = Word(BIN, matrix.T)
    singles = empirical_distribution(w, Shape([(0, 0)]))
    assert list(singles.probs) == [Fraction(7, 16), Fraction(9, 16)]
    pairs = empirical_distribution(w, Shape([(0, 0), (1, 0)]))
    assert list(pairs.probs) == [
        Fraction(2, 16), Fraction(5, 16), Fraction(5, 16), Fraction(4, 16)
    ]
    square = empirical_distribution(w, Shape.box(2, 2))
    assert square.prob((0, 1, 1, 0)) == Fraction(2, 16)


def _random_shape(rng, dim, max_extent, max_points):
    span = [rng.integers(1, max_extent + 1) for _ in range(dim)]
    pool = list(itertools.product(*(range(s) for s in span)))
    k = int(rng.integers(1, min(max_points, len(pool)) + 1))
    picks = rng.choice(len(pool), size=k, replace=False)
    return Shape([pool[i] for i in picks])


def _random_subshape(rng, shape):
    k = int(rng.integers(1, len(shape.points) + 1))
    picks = rng.choice(len(shape.points), size=k, replace=False)
    return Shape([shape.points[i] for i in picks])


def test_marginalization_consistency_random():
    """Restricting the empirical window distribution to a subshape equals
    computing the empirical distribution of the subshape directly —
    exactly, in rational arithmetic."""
    rng = np.random.default_rng(11)
    for _ in range(120):
        dim = int(rng.integers(1, 3))
        q = int(rng.integers(2, 4))
        n = int(rng.integers(2, 6 if dim == 2 else 9))
        ab = Alphabet.of_size(q)
        cells = rng.integers(0, q, size=(n,) * dim)
        w = Word(ab, cells)
        shape = _random_shape(rng, dim, min(n, 3), 4)
        sub = _random_subshape(rng, shape)
        via_marginal = marginal(empirical_distribution(w, shape), sub)
        direct = empirical_distribution(w, sub)
        assert list(via_marginal.probs) == list(direct.probs)


def test_marginal_keeps_exactness_and_total_mass():
    w = Word.from_string("011010")
    fr = empirical_distribution(w, Shape.segment(3))
    sub = marginal(fr, Shape.segment(2))
    assert sub.is_exact
    assert sum(sub.probs) == 1


def test_empirical_counts_match_distribution():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        w = Word(BIN, rng.integers(0, 2, size=n))
        counts = empirical_counts(w, Shape.segment(2))
        fr = empirical_distribution(w, Shape.segment(2))
        assert counts.sum() == n
        for c, p in zip(counts, fr.probs):
            assert p == Fraction(int(c), n)


def test_tv_distance_hand_values():
    a = PatternDistribution.from_floats(BIN, Shape.segment(1), [1.0, 0.0])
    b = PatternDistribution.from_floats(BIN, Shape.segment(1), [0.0, 1.0])
    assert tv_distance(a, b) == pytest.approx(1.0)
    c = PatternDistribution.from_floats(BIN, Shape.segment(1), [0.5, 0.5])
    assert tv_distance(a, c) == pytest.approx(0.5)
    assert tv_distance(c, c) == 0.0


def test_tv_distance_contracts_under_marginal():
    rng = np.random.default_rng(23)
    shape = Shape.segment(3)
    sub = Shape.segment(2)
    for _ in range(50):
        pa = rng.dirichlet(np.ones(8))
        pb = rng.dirichlet(np.ones(8))
        a = PatternDistribution.from_floats(BIN, shape, pa)
        b = PatternDistribution.from_floats(BIN, shape, pb)
        assert tv_distance(marginal(a, sub), marginal(b, sub)) \
            <= tv_distance(a, b) + 1e-12


def _placement_loop(shape, side, cyclic, slack):
    """Reference: every placement's flat cells, one origin at a time."""
    pts, d = shape.points, shape.dim
    if cyclic:
        origins = itertools.product(range(side), repeat=d)
    else:
        lo = [min(p[j] for p in pts) for j in range(d)]
        pts = [tuple(c - l for c, l in zip(p, lo)) for p in pts]
        tops = [side - max(p[j] for p in pts) - slack for j in range(d)]
        origins = itertools.product(*(range(t) for t in tops))
    table = []
    for v in origins:
        row = []
        for p in pts:
            flat = 0
            for c, dc in zip(v, p):
                flat = flat * side + (c + dc) % side
            row.append(flat)
        table.append(row)
    return table


def test_placements_match_loop_oracle():
    shapes = [
        (Shape.segment(3), 5),
        (Shape([(2,), (-1,), (5,)]), 8),               # translated, gapped
        (Shape.box(2, 2), 4),
        (Shape.box(2, 2).translate((3, -2)), 5),
        (Shape([(0, 0), (1, 2), (-1, 1)]), 5),          # not a box
        (Shape.box(2, 3), 3),
    ]
    for shape, side in shapes:
        for cyclic, slack in ((True, 0), (False, 0), (False, 1)):
            table = placements(shape, side, cyclic=cyclic, slack=slack)
            expect = _placement_loop(shape, side, cyclic, slack)
            assert table.shape == (len(expect), len(shape))
            assert table.tolist() == expect
    # a cyclic table covers every cell once per shape point
    table = placements(Shape([(0, 0), (1, 2), (-1, 1)]), 5)
    for col in table.T:
        assert sorted(col.tolist()) == list(range(25))


def test_placements_reject_too_small_side():
    with pytest.raises(ValidationError, match="side too small"):
        placements(Shape.segment(3), 2, cyclic=False)
    with pytest.raises(ValidationError, match="side too small"):
        placements(Shape.segment(3), 3, cyclic=False, slack=1)  # halfopen
    with pytest.raises(ValidationError, match="side too small"):
        placements(Shape([(0, 0), (0, 3)]), 3, cyclic=False)
    assert placements(Shape.segment(3), 3, cyclic=False).tolist() == [[0, 1, 2]]
    assert placements(Shape.segment(3), 2).tolist() == [[0, 1, 0], [1, 0, 1]]


def _gather_counts(cells, shapes, side, q, m):
    """Reference: each shape's placement table gathered from the flat
    cells, one base-q code per placement, counted row by row and summed
    over the shapes."""
    out = np.zeros((len(cells), m), dtype=np.int64)
    for shape in shapes:
        table = placements(shape, side)
        codes = np.zeros((len(cells), len(table)), dtype=np.int64)
        for col in table.T:
            codes = codes * q + cells.take(col, axis=1)
        for row, code in zip(out, codes):
            row += np.bincount(code, minlength=m)
    return out


def test_pattern_counts_match_placement_gather(monkeypatch):
    code_dtypes, bincount = set(), np.bincount
    def spy(x, *args, **kwargs):
        code_dtypes.add(np.asarray(x).dtype)
        return bincount(x, *args, **kwargs)
    monkeypatch.setattr(np, "bincount", spy)
    rng = np.random.default_rng(43)
    cases = [
        (1, 7, [Shape.segment(3)]),
        (1, 5, [Shape([(-3,), (0,), (4,)])]),              # negative, wraps
        (1, 3, [Shape([(2,), (7,), (-8,)])]),              # offsets beyond the side
        (1, 2, [Shape.segment(3)]),                        # shape longer than the side
        (1, 1, [Shape.segment(2)]),
        (2, 4, [Shape([(0, 0), (1, 2), (-1, 1)])]),
        (2, 2, [Shape.box(2, 2).translate((3, -5))]),
        (2, 1, [Shape.box(2, 2)]),
        (3, 3, [Shape([(0, 0, 0), (0, 1, -1), (4, 0, 2)])]),
        (3, 2, [Shape.box(2, 3)]),
        # a weak product's axis shapes, counted together
        (2, 4, [Shape([(0, 0), (0, 1)]), Shape([(0, 0), (1, 0)])]),
        (3, 3, [Shape([(0, 0, 0), (0, 0, 1)]), Shape([(0, 0, 0), (0, 1, 0)]),
                Shape([(0, 0, 0), (1, 0, 0)])]),
    ]
    for q in (2, 3, 5):
        for dim, side, shapes in cases:
            m = q ** len(shapes[0])
            if m > 1000:
                continue
            # stacks on both sides of 2^8 and 2^16 codes (S·m)
            for s in {1, 7, 256 // m, 256 // m + 1, 2 ** 16 // m + 1} - {0}:
                cells = rng.integers(0, q, (s, side ** dim)).astype(np.uint8)
                got = lattice_core._pattern_counts(cells, shapes, side, q, m)
                assert got.dtype == np.int64 and got.shape == (s, m)
                assert np.array_equal(got, _gather_counts(cells, shapes, side, q, m)), \
                    (q, dim, side, shapes, s)
                assert (got.sum(axis=1) == side ** dim * len(shapes)).all()
    # every narrow code dtype was counted (the reference counts int64)
    assert {np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32)} <= code_dtypes


def test_pattern_counts_wide_cells():
    # int64 cells, as exhaustive enumeration and alphabets above 256 give
    # them, count as their narrow form does
    rng = np.random.default_rng(47)
    shape = Shape([(0,), (5,)])
    for q in (2, 300):
        cells = rng.integers(0, q, (4, 6))
        got = lattice_core._pattern_counts(cells, [shape], 6, q, q ** 2)
        assert np.array_equal(got, _gather_counts(cells, [shape], 6, q, q ** 2))


def _averaged_loop(mu, shape):
    """Reference: the placement-by-placement outer-product sum."""
    total = np.zeros(mu.alphabet.size ** len(shape))
    for v in itertools.product(range(mu.side), repeat=mu.dim):
        block = np.ones(1)
        for s in shape.points:
            idx = 0
            for c, dc in zip(v, s):
                idx = idx * mu.side + (c + dc) % mu.side  # row-major rank
            block = np.multiply.outer(block, mu.site_dists[idx]).reshape(-1)
        total += block
    return total / mu.side ** mu.dim


def test_averaged_marginal_matches_placement_loop():
    rng = np.random.default_rng(31)
    tri = Alphabet.of_size(3)
    cases = [
        (1, 7, Shape([(2,), (-1,), (5,)])),
        (2, 4, Shape.box(2, 2)),
        (2, 5, Shape([(0, 0), (1, 2), (-1, 1)])),
        (3, 3, Shape.box(2, 3)),
    ]
    for dim, side, shape in cases:
        rows = rng.dirichlet(np.ones(3), size=side ** dim)
        mu = SiteProductMeasure(tri, dim, side, rows)
        got = averaged_marginal(mu, shape).probs
        assert np.array_equal(got, _averaged_loop(mu, shape))


def test_averaged_marginal_large_window_stays_small():
    # 256 placements of a 16-cell window: 2^16 patterns each, summed in
    # blocks so that memory stays far below placements x patterns floats
    rng = np.random.default_rng(37)
    mu = SiteProductMeasure(BIN, 2, 16, rng.dirichlet(np.ones(2), size=256))
    shape = Shape.box(4, 2)
    tracemalloc.start()
    try:
        got = averaged_marginal(mu, shape).probs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert np.array_equal(got, _averaged_loop(mu, shape))


def test_window_law_stack_matches_single_measures(monkeypatch):
    # a stack of measures gives each measure's own law, bit for bit, also
    # when the placements are summed over several blocks
    rng = np.random.default_rng(41)
    tri = Alphabet.of_size(3)
    for alphabet, dim, side, shape, blocks in (
            (BIN, 1, 5, Shape.segment(3), False),
            (tri, 1, 7, Shape.segment(2), True),
            (BIN, 2, 4, Shape.box(2, 2), True)):
        q, cells = alphabet.size, side ** dim
        table = placements(shape, side)
        stack = rng.dirichlet(np.ones(q), size=(6, cells))
        alone = [lattice_core._window_law(rows, table) for rows in stack]
        if blocks:   # a few placements per block, for the stack and for one
            monkeypatch.setattr(lattice_core, "_BLOCK_FLOATS", 3 * q ** len(shape))
        got = lattice_core._window_law(stack, table)
        assert got.shape == (6, q ** len(shape))
        for i, rows in enumerate(stack):
            assert np.array_equal(got[i], alone[i]), (dim, side, i)
            assert np.array_equal(lattice_core._window_law(rows, table), alone[i])
        monkeypatch.undo()


def test_window_law_empty_stack():
    # an empty stack has an empty law of the window's pattern count
    for k, side in ((2, 3), (3, 4)):
        table = placements(Shape.segment(k), side)
        law = lattice_core._window_law(np.zeros((0, side, 2)), table)
        assert law.shape == (0, 2 ** k) and law.dtype == np.float64


def test_averaged_marginal_translation_invariant():
    rng = np.random.default_rng(7)
    mu = SiteProductMeasure(BIN, 1, 6, rng.dirichlet(np.ones(2), size=6))
    base = averaged_marginal(mu, Shape.segment(2))
    shifted = averaged_marginal(mu, Shape.segment(2).translate((3,)))
    np.testing.assert_allclose(base.probs, shifted.probs, atol=1e-14)


def test_point_mass_averaged_marginal_is_empirical():
    rng = np.random.default_rng(9)
    for dim in (1, 2):
        n = 4
        cells = rng.integers(0, 2, size=(n,) * dim)
        w = Word(BIN, cells)
        mu = SiteProductMeasure.point_mass(w)
        shape = Shape.segment(2) if dim == 1 else Shape([(0, 0), (1, 0)])
        avg = averaged_marginal(mu, shape)
        fr = empirical_distribution(w, shape)
        np.testing.assert_allclose(avg.probs, fr.float_probs(), atol=1e-14)


def test_entropy_values():
    u = PatternDistribution.uniform(BIN, Shape.segment(2))
    assert entropy(u) == pytest.approx(2.0)
    point = PatternDistribution.from_floats(BIN, Shape.segment(2),
                                            [1.0, 0.0, 0.0, 0.0])
    assert entropy(point) == 0.0
    tri = Alphabet.of_size(3)
    assert entropy(PatternDistribution.uniform(tri, Shape.segment(1))) \
        == pytest.approx(np.log2(3.0))


def test_product_entropy_sums_sites():
    mu = SiteProductMeasure(BIN, 1, 3,
                            [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]])
    assert product_entropy(mu) == pytest.approx(2.0)
    assert product_entropy(SiteProductMeasure.uniform(BIN, 2, 3)) \
        == pytest.approx(9.0)


@pytest.mark.parametrize("row", [[np.nan, 1.0], [np.inf, 0.0], [1.2, -0.2], [0.6, 0.6]],
                         ids=["nan", "inf", "negative", "sum above 1"])
def test_site_product_measure_rejects_bad_rows(row):
    with pytest.raises(ValidationError):
        SiteProductMeasure(BIN, 1, 2, [[0.5, 0.5], row])


def test_distribution_validation():
    with pytest.raises(ValidationError):
        PatternDistribution.from_floats(BIN, Shape.segment(1), [0.7, 0.7])
    with pytest.raises(ValidationError):
        PatternDistribution.from_floats(BIN, Shape.segment(1), [1.5, -0.5])
    with pytest.raises(ValidationError):
        PatternDistribution(BIN, Shape.segment(1),
                            [Fraction(1, 3), Fraction(1, 3)])


def test_pattern_space_guard():
    big = Shape.segment(40)
    with pytest.raises(SizeGuardError):
        PatternDistribution.uniform(BIN, big)
