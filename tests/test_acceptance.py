"""The acceptance gate: one check per shipped guarantee, each printing a
single [PASS]/[FAIL] line (run with -s or -rA to see them all).

Every numeric target here is pinned against an independent oracle — a
closed form, an exhaustive enumeration, or a spectral computation — never
against the code under test.  Checks with a wall-clock budget include it
in their pass condition.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from semicap.lattice_core import (
    Alphabet,
    Shape,
    Word,
    empirical_distribution,
    marginal,
)
from semicap.scs_model import (
    ConstraintSet,
    LinearConstraint,
    axial_product,
    count_admissible,
    count_admissible_noncyclic,
    count_exhaustive,
    fully_constrained,
    rll_constraint,
)
from semicap.capacity import (
    capacity_1d,
    elimeysch_lower_bound,
    transfer_matrix_capacity,
)
from semicap.indentropy import (
    PeriodicProductMeasure,
    curve_optimum_01p,
    hind_com_fixed_n,
    hind_fixed_n,
)
from semicap.validation import concentration_check, hasse_report

BIN = Alphabet.binary()


def report(num: int, desc: str, ok: bool, detail: str = "",
           elapsed: float | None = None) -> None:
    clock = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} — {desc}{clock}")
    assert ok, f"criterion {num}: {desc}" + (f"\n  {detail}" if detail else "")


# ---------------------------------------------------------------------------

def test_criterion_01_empirical_exactness():
    t0 = time.perf_counter()
    w = Word.from_string("0010111001")
    ok = empirical_distribution(w, Shape.segment(3)).prob((1, 1, 0)) \
        == Fraction(1, 10)
    ok &= empirical_distribution(w, Shape.segment(2)).prob((1, 0)) \
        == Fraction(3, 10)
    matrix = np.array([
        [0, 1, 1, 1],
        [0, 0, 1, 1],
        [1, 0, 0, 1],
        [1, 0, 1, 0],
    ])
    w2 = Word(BIN, matrix.T)
    ok &= empirical_distribution(w2, Shape.box(2, 2)).prob((0, 1, 1, 0)) \
        == Fraction(2, 16)
    singles = empirical_distribution(w2, Shape([(0, 0)]))
    ok &= list(singles.probs) == [Fraction(7, 16), Fraction(9, 16)]
    pairs = empirical_distribution(w2, Shape([(0, 0), (1, 0)]))
    ok &= list(pairs.probs) == [
        Fraction(2, 16), Fraction(5, 16), Fraction(5, 16), Fraction(4, 16)]
    t = time.perf_counter() - t0
    report(1, "empirical distributions match hand counts exactly",
           bool(ok) and t < 1.0, elapsed=t)


def test_criterion_02_marginal_compatibility_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    checked = 0
    ok = True
    while checked < 1000:
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(2, 9)) if dim == 1 else int(rng.integers(2, 5))
        cells = rng.integers(0, 2, size=(n,) * dim)
        w = Word(BIN, cells)
        span = [int(rng.integers(1, 3)) for _ in range(dim)]
        pool = list(itertools.product(*(range(s + 1) for s in span)))
        k = int(rng.integers(1, min(4, len(pool)) + 1))
        picks = rng.choice(len(pool), size=k, replace=False)
        outer = Shape([pool[i] for i in picks])
        j = int(rng.integers(1, len(outer.points) + 1))
        sub = Shape([outer.points[i]
                     for i in rng.choice(len(outer.points), size=j,
                                         replace=False)])
        via = marginal(empirical_distribution(w, outer), sub)
        direct = empirical_distribution(w, sub)
        if list(via.probs) != list(direct.probs):
            ok = False
            break
        checked += 1
    t = time.perf_counter() - t0
    report(2, "marginal of the empirical law equals the direct empirical "
              "law on 1000 random nested shapes",
           ok and t < 30.0, elapsed=t)


def test_criterion_03_soft_cap_capacity():
    t0 = time.perf_counter()
    res = capacity_1d(rll_constraint(2, 0.05))
    t = time.perf_counter() - t0
    report(3, "capacity of the 5%-capped triple-ones system is 0.976",
           abs(res.value - 0.976) <= 0.002 and t < 60.0,
           detail=f"got {res.value}", elapsed=t)


def test_criterion_04_hard_capacities_match_spectral_oracle():
    t0 = time.perf_counter()
    golden = capacity_1d(rll_constraint(1, 0.0)).value
    ok = abs(golden - 0.69424) <= 1e-4
    ok &= abs(golden - transfer_matrix_capacity([(1, 1)])) <= 1e-4
    trib = capacity_1d(rll_constraint(2, 0.0)).value
    ok &= abs(trib - transfer_matrix_capacity([(1, 1, 1)])) <= 1e-4
    t = time.perf_counter() - t0
    report(4, "hard-constraint capacities agree with the spectral oracle",
           bool(ok) and t < 60.0,
           detail=f"golden {golden}, tribonacci {trib}", elapsed=t)


def test_criterion_05_dimension_lower_bound():
    b3 = elimeysch_lower_bound(0.976, 3)
    ok = abs(b3.value - 0.928) <= 0.006 and not b3.degenerate
    ok &= elimeysch_lower_bound(0.976, 42).degenerate
    report(5, "linear dimension bound hits 0.928 at d=3 and degenerates "
              "at d=42", bool(ok), detail=f"d=3 value {b3.value}")


def test_criterion_06_product_measure_bound_certified():
    t0 = time.perf_counter()
    res = hind_fixed_n(rll_constraint(2, 0.05), 3, restarts=20, seed=0)
    t = time.perf_counter() - t0
    ok = res.value >= 0.9490 and res.feasible and res.distance <= 1e-8
    report(6, "three-site product measure certifies at least 0.9490",
           ok and t < 120.0,
           detail=f"value {res.value}, feasible {res.feasible}", elapsed=t)


def test_criterion_07_two_site_curve():
    sym = curve_optimum_01p(0.2)
    r = math.sqrt(0.2)
    ok = abs(sym.x - r) <= 1e-6 and abs(sym.y - r) <= 1e-6
    asym = curve_optimum_01p(0.01)
    ok &= abs(asym.x - 0.454) <= 2e-3 and abs(asym.y - 0.022) <= 2e-3
    tiny = curve_optimum_01p(1e-6)
    ok &= 0.499 <= tiny.value <= 0.502
    report(7, "two-site curve: symmetric at p=0.2, asymmetric at p=0.01, "
              "half a bit in the small-p limit", bool(ok),
           detail=f"p=0.01 optimum ({asym.x}, {asym.y}), "
                  f"p=1e-6 value {tiny.value}")


def _random_small_system(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return rll_constraint(int(rng.integers(1, 3)),
                              float(rng.uniform(0, 0.3))), 1
    if kind == 1:
        length = int(rng.integers(1, 3))
        pats = {tuple(rng.integers(0, 2, size=length).tolist())
                for _ in range(rng.integers(1, 3))}
        return fully_constrained(BIN, Shape.segment(length), sorted(pats)), 1
    if kind == 2:
        rows = [LinearConstraint(tuple(rng.uniform(0, 1, size=4)),
                                 float(rng.uniform(0.3, 1.0)), "<=")
                for _ in range(int(rng.integers(1, 3)))]
        return ConstraintSet(BIN, Shape.segment(2), rows), 1
    factor = rll_constraint(1, float(rng.uniform(0, 0.4)))
    return axial_product(factor, 2, "strict" if rng.integers(0, 2)
                         else "weak"), 2


def test_criterion_08_counting_oracles():
    t0 = time.perf_counter()
    lucas = {4: 7, 5: 11, 6: 18, 7: 29, 8: 47, 9: 76, 10: 123, 11: 199,
             12: 322, 13: 521, 14: 843}
    fib = {4: 8, 5: 13, 6: 21, 7: 34, 8: 55, 9: 89, 10: 144, 11: 233,
           12: 377, 13: 610, 14: 987}
    g = rll_constraint(1, 0.0)
    ok = all(count_admissible(n, g) == lucas[n] for n in range(4, 15))
    ok &= all(count_admissible_noncyclic(n, g) == fib[n]
              for n in range(4, 15))
    rng = np.random.default_rng(77)
    done = 0
    while ok and done < 20:
        system, dim = _random_small_system(rng)
        n = int(rng.integers(2, 5))
        if n < len(getattr(system, "shape", Shape.segment(1)).points) \
                and dim == 1:
            continue
        eps = float(rng.choice([0.0, 0.05]))
        if count_admissible(n, system, eps) != count_exhaustive(n, system,
                                                                eps):
            ok = False
            break
        done += 1
    t = time.perf_counter() - t0
    report(8, "cyclic counts are Lucas, non-cyclic are Fibonacci, and the "
              "pruned counter matches exhaustion on 20 random systems",
           bool(ok) and t < 120.0, elapsed=t)


def test_criterion_09_multichoice_optima():
    g = rll_constraint(1, 0.0)
    four = hind_com_fixed_n(g, 4)
    ok = four.value == 0.5
    sets = four.witness.sets()
    ok &= sets in ([(0,), (0, 1), (0,), (0, 1)],
                   [(0, 1), (0,), (0, 1), (0,)])
    ok &= hind_com_fixed_n(g, 6).value == 0.5
    ok &= hind_com_fixed_n(g, 8).value == 0.5
    ok &= hind_com_fixed_n(g, 5).value < 0.5
    report(9, "multi-choice rate is 1/2 on even cycles (alternating "
              "witness) and below 1/2 on the 5-cycle", bool(ok))


def _cyclic_triple_ones_inside(theta: float, n: int, cap: Fraction) -> float:
    """Exact probability that an i.i.d. Bernoulli(theta) cyclic binary word of
    length n has at most floor(cap * n) cyclic windows reading 111.

    Transfer matrix over (first two bits, last two bits, windows counted so
    far); counts above the cap collapse into one absorbing state.  The two
    windows that wrap around are added when the cycle is closed.
    """
    top = math.floor(cap * n) + 1           # index of the "over the cap" state
    bit_prob = (1.0 - theta, theta)
    mass = np.zeros((4, 4, top + 1))        # [head, tail, count]
    for head in range(4):
        mass[head, head, 0] = bit_prob[head >> 1] * bit_prob[head & 1]
    for _ in range(n - 2):
        nxt = np.zeros_like(mass)
        for tail in range(4):
            for bit in (0, 1):
                chunk = bit_prob[bit] * mass[:, tail, :]
                new_tail = (2 * tail + bit) & 3
                if tail == 3 and bit == 1:
                    nxt[:, new_tail, 1:] += chunk[:, :-1]
                    nxt[:, new_tail, -1] += chunk[:, -1]
                else:
                    nxt[:, new_tail, :] += chunk
        mass = nxt
    inside = 0.0
    for head in range(4):
        for tail in range(4):
            wrap = int(tail == 3 and head >= 2) + int(tail & 1 and head == 3)
            inside += mass[head, tail, :max(0, top - wrap)].sum()
    return float(inside)


def test_criterion_10_concentration():
    t0 = time.perf_counter()
    theta = 0.05 ** (1 / 3)
    mu = PeriodicProductMeasure.iid(BIN, [1 - theta, theta])
    gamma = rll_constraint(2, 0.05)
    sides, trials = [30, 100, 300, 3000], 2000
    rep = concentration_check(mu, gamma, [0.01], sides, trials, seed=0)
    fr = rep.fractions[0]
    # For a single mass cap the distance is the overshoot max(0, K/N - p),
    # and concentration_check counts dist <= eps as inside, so the exact law
    # is P(K <= floor((p + eps) N)) with K the number of cyclic 111 windows.
    cap = Fraction(1, 20) + Fraction(1, 100)
    exact = {n: _cyclic_triple_ones_inside(theta, n, cap) for n in sides}
    band = [4 * math.sqrt(exact[n] * (1 - exact[n]) / trials) for n in sides]
    # the transfer matrix agrees with enumerating all 12-cycles (cap 3/12)
    enumerated = sum(
        math.prod(theta if b else 1 - theta for b in w)
        for w in itertools.product((0, 1), repeat=12)
        if sum(all(w[(i + j) % 12] for j in range(3)) for i in range(12)) <= 3)
    oracle_gap = abs(
        enumerated - _cyclic_triple_ones_inside(theta, 12, Fraction(1, 4)))
    t = time.perf_counter() - t0
    ok = bool(rep.monotone_in_side[0]) and rep.base_feasible
    ok &= all(abs(f - exact[n]) <= b for f, n, b in zip(fr, sides, band))
    ok &= all(np.diff([exact[n] for n in sorted(exact)]) > 0)
    ok &= exact[3000] >= 0.95 and t < 120.0
    ok &= oracle_gap <= 1e-12
    report(10, "inside-fraction monotone over N in {30,100,300,3000}, "
               "within 4 binomial s.e. of the exact cyclic law at each N, "
               "and the exact law reaches 0.95 by N=3000",
           bool(ok),
           detail="; ".join(
               f"N={n}: sampled {f:.4f}, exact {exact[n]:.4f} "
               f"+/- {b:.4f}" for f, n, b in zip(fr, sides, band)),
           elapsed=t)


def test_criterion_11_bound_chain_consistency():
    rep = hasse_report(rll_constraint(2, 0.05), 2, hind_sides=(3,),
                       count_sides=(6,), restarts=10, seed=0)
    hind = rep.value("hind")
    cap = rep.value("capacity_1d")
    lift_edge = next(holds for desc, holds, _ in rep.edges
                     if desc == "lift preserves rate")
    ok = hind <= cap + 1e-12 and bool(lift_edge) \
        and all(holds for _, holds, _ in rep.edges)
    report(11, "bound chain: product-measure value below capacity, lift "
               "preserves the rate to 1e-12", bool(ok),
           detail=f"hind {hind}, capacity {cap}")
