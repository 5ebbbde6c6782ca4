"""Independent oracles for the benchmark's checks.

Nothing here imports `semicap`: every expected value is computed from the
op specs with numpy, scipy and exact integer/rational arithmetic, by
methods other than the program's (transfer matrices instead of the DFS
counter, the pressure dual instead of Frank-Wolfe, enumeration instead of
branch and bound, a vectorised generator instead of the scalar one).
`self_check` first validates each oracle against brute-force enumeration,
closed forms or published values on tiny inputs; the benchmark refuses to
run if any of those disagree.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog, minimize_scalar


class OracleError(RuntimeError):
    """An oracle could not decide an input (or failed its own self-check)."""


# ---------------------------------------------------------------------------
# Systems as exact data
# ---------------------------------------------------------------------------

def system_rows(spec: dict) -> tuple[int, list[tuple[list[Fraction], Fraction]]]:
    """(window, [(coefficients, bound)]) of a 1-D system spec, exactly."""
    if spec["kind"] == "rll":
        w = spec["k"] + 1
        coeffs = [Fraction(0)] * (2 ** w)
        coeffs[-1] = Fraction(1)
        return w, [(coeffs, Fraction(spec["p"]))]
    if spec["kind"] == "linear":
        return spec["window"], [([Fraction(c) for c in cs], Fraction(b))
                                for cs, b in spec["rows"]]
    raise OracleError(f"not a 1-D system: {spec['kind']}")


def all_words(n: int) -> np.ndarray:
    """All binary words of length n, one per row, first bit most significant."""
    return ((np.arange(2 ** n)[:, None] >> np.arange(n)[::-1]) & 1).astype(np.int64)


def cyclic_window_counts(words: np.ndarray, w: int) -> np.ndarray:
    """(number of words, 2^w) counts of each pattern over the cyclic windows."""
    idx = np.zeros_like(words)
    for j in range(w):
        idx = idx * 2 + np.roll(words, -j, axis=1)
    out = np.zeros((len(words), 2 ** w), dtype=np.int64)
    for pat in range(2 ** w):
        out[:, pat] = (idx == pat).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Exact counts: transfer matrices over window states
# ---------------------------------------------------------------------------

def cyclic_budget_count(n: int, w: int, weights: list[int], budget: int) -> int:
    """Cyclic binary words of length n >= w whose windows' integer weights sum
    to at most `budget`.  Dynamic programme over (head, last w-1 bits,
    running total), closing the cycle against the head."""
    h = w - 1
    mask = (1 << h) - 1
    total = 0
    for head in range(1 << h):
        states = {(head, 0): 1}
        tail_bits = [None] * (n - h) + [(head >> (h - 1 - j)) & 1 for j in range(h)]
        for bit in tail_bits:
            nxt: dict[tuple[int, int], int] = {}
            for (last, hits), cnt in states.items():
                for b in ((0, 1) if bit is None else (bit,)):
                    pat = (last << 1) | b
                    new = hits + weights[pat]
                    if new <= budget:
                        key = (pat & mask, new)
                        nxt[key] = nxt.get(key, 0) + cnt
            states = nxt
        total += sum(states.values())
    return total


def noncyclic_forbidden_count(n: int, w: int, forbidden: set[int]) -> int:
    """Binary words of length n with no forbidden pattern in any of the
    n-w+1 non-wrapping windows."""
    h = w - 1
    mask = (1 << h) - 1
    states = {s: 1 for s in range(1 << h)}
    for _ in range(n - h):
        nxt: dict[int, int] = {}
        for last, cnt in states.items():
            for b in (0, 1):
                pat = (last << 1) | b
                if pat not in forbidden:
                    nxt[pat & mask] = nxt.get(pat & mask, 0) + cnt
        states = nxt
    return sum(states.values())


def _int_weights(coeffs: list[Fraction]) -> tuple[list[int], int]:
    den = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs], den


def count_1d(spec: dict, n: int) -> int:
    """Exact cyclic count of a single-row 1-D system at eps = 0."""
    w, rows = system_rows(spec)
    if len(rows) != 1:
        raise OracleError("exact counts are for single-row systems")
    coeffs, bound = rows[0]
    weights, den = _int_weights(coeffs)
    return cyclic_budget_count(n, w, weights, math.floor(bound * n * den))


def count_1d_noncyclic(spec: dict, n: int) -> int:
    w, rows = system_rows(spec)
    (coeffs, bound), = rows
    if bound != 0:
        raise OracleError("non-cyclic counts are for forbidden-pattern systems")
    return noncyclic_forbidden_count(n, w, {i for i, c in enumerate(coeffs) if c > 0})


def _ones_run_hits(cubes: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Per word, the cyclic windows of w ones along `axis` (axis 0 = words)."""
    run = np.ones_like(cubes)
    for j in range(w):
        run &= np.roll(cubes, -j, axis=axis)
    return run.reshape(len(cubes), -1).sum(axis=1)


def count_axial_enumerated(spec: dict, n: int) -> int:
    """Exact count of a d=2 axial rll product by enumerating all 2^(n^2) words."""
    factor, mode = spec["factor"], spec["mode"]
    if spec["dim"] != 2 or factor["kind"] != "rll" or n * n > 20:
        raise OracleError("enumeration oracle covers small 2-D rll products")
    w, p = factor["k"] + 1, Fraction(factor["p"])
    cubes = all_words(n * n).reshape(-1, n, n)
    hits = [_ones_run_hits(cubes, w, axis) for axis in (1, 2)]
    if mode == "strict":
        cap = math.floor(p * n * n)
        return int(np.count_nonzero((hits[0] <= cap) & (hits[1] <= cap)))
    cap = math.floor(p * n * n * 2)
    return int(np.count_nonzero(hits[0] + hits[1] <= cap))


def count_hard_squares(n: int, cyclic: bool) -> int:
    """Hard squares (no two adjacent ones along either axis) on an n x n
    array, by the row transfer matrix, exactly in Python integers."""
    rows = [r for r in range(1 << n)
            if not r & (r >> 1) and not (cyclic and r & 1 and r >> (n - 1) & 1)]
    t = [[int(not a & b) for b in rows] for a in rows]
    if cyclic:
        power = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
        for _ in range(n):
            power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*t)] for row in power]
        return sum(power[i][i] for i in range(len(rows)))
    vec = [1] * len(rows)
    for _ in range(n - 1):
        vec = [sum(t[i][j] * vec[j] for j in range(len(rows))) for i in range(len(rows))]
    return sum(vec)


def expected_count(op: dict) -> int:
    spec, n = op["system"], op["n"]
    cyclic = op["op"] == "count_admissible"
    if spec["kind"] == "axial":
        factor = spec["factor"]
        if factor["kind"] == "rll" and factor["k"] == 1 and Fraction(factor["p"]) == 0 \
                and spec["mode"] == "strict" and spec["dim"] == 2:
            return count_hard_squares(n, cyclic)
        if not cyclic:
            raise OracleError("no non-cyclic oracle for this axial system")
        return count_axial_enumerated(spec, n)
    if Fraction(op.get("eps", "0")) != 0:
        return count_relaxed(spec, n, Fraction(op["eps"]))
    return count_1d(spec, n) if cyclic else count_1d_noncyclic(spec, n)


# ---------------------------------------------------------------------------
# Relaxed counts: enumeration grouped by count vector, LP distances by HiGHS
# ---------------------------------------------------------------------------

RELAXED_MARGIN = 1e-7


def tv_distance_lp(mu: np.ndarray, rows) -> float:
    """Total-variation distance from mu to {nu in simplex : c_r . nu <= b_r}."""
    m = len(mu)
    eye = np.eye(m)
    c = np.concatenate([np.zeros(m), 0.5 * np.ones(m)])
    a_ub = [np.hstack([eye, -eye]), np.hstack([-eye, -eye])]
    b_ub = [mu, -mu]
    for coeffs, bound in rows:
        a_ub.append(np.concatenate([np.asarray(coeffs, dtype=float), np.zeros(m)])[None, :])
        b_ub.append([float(bound)])
    res = linprog(c, A_ub=np.vstack(a_ub), b_ub=np.concatenate(b_ub),
                  A_eq=np.concatenate([np.ones(m), np.zeros(m)])[None, :], b_eq=[1.0],
                  bounds=[(0, None)] * (2 * m), method="highs")
    if res.status != 0:
        raise OracleError(f"distance LP failed: {res.message}")
    return float(res.fun)


def count_relaxed(spec: dict, n: int, eps: Fraction) -> int:
    """Words within TV distance eps of Γ: one LP per distinct count vector."""
    w, rows = system_rows(spec)
    counts = cyclic_window_counts(all_words(n), w)
    distinct, inverse = np.unique(counts, axis=0, return_inverse=True)
    dist = np.array([tv_distance_lp(v / n, rows) for v in distinct])
    if (np.abs(dist - float(eps)) < RELAXED_MARGIN).any():
        raise OracleError(f"a count vector lies within {RELAXED_MARGIN} of eps; "
                          "the relaxed count is not decidable in floating point")
    return int(np.count_nonzero(dist[inverse.reshape(-1)] <= float(eps)))


# ---------------------------------------------------------------------------
# Capacity: the pressure dual  min_{lambda >= 0} log2 rho(A_lambda) + lambda . b
# ---------------------------------------------------------------------------

def _edges(w: int):
    """(source state, target state) of every length-w word on (w-1)-grams."""
    h = w - 1
    return [(x >> 1, x & ((1 << h) - 1)) if h else (0, 0) for x in range(1 << w)]


class Pressure:
    """log2 spectral radius of the de Bruijn matrix tilted by the soft rows;
    rows with bound 0 and nonnegative coefficients delete their edges."""

    def __init__(self, w: int, rows):
        keep = np.ones(1 << w, dtype=bool)
        self.soft = []
        for coeffs, bound in rows:
            c = np.array([float(x) for x in coeffs])
            if bound == 0 and (c >= 0).all():
                keep &= c == 0
            else:
                self.soft.append((c, float(bound)))
        self.w, self.keep = w, keep
        self.edges = _edges(w)
        self.nstates = 1 << (w - 1)

    def weights(self, lam) -> np.ndarray:
        """Edge weight 2^(-lambda . c(x)) of every word x, 0 if deleted."""
        expo = np.zeros(1 << self.w)
        for l, (c, _) in zip(lam, self.soft):
            expo += l * c
        return np.where(self.keep, 2.0 ** (-expo), 0.0)

    def matrix(self, lam) -> np.ndarray:
        a = np.zeros((self.nstates, self.nstates))
        for wt, (u, v) in zip(self.weights(lam), self.edges):
            a[u, v] += wt
        return a

    def dual(self, lam) -> float:
        rho = float(np.max(np.abs(np.linalg.eigvals(self.matrix(lam)))))
        return math.log2(rho) + sum(l * b for l, (_, b) in zip(lam, self.soft))

    def perron_window_measure(self, lam):
        """Window distribution and entropy rate of the Perron Markov chain."""
        a = self.matrix(lam)
        vals, right = np.linalg.eig(a)
        k = int(np.argmax(vals.real))
        rho, r = vals[k].real, np.abs(right[:, k].real)
        vals_l, left = np.linalg.eig(a.T)
        l = np.abs(left[:, int(np.argmax(vals_l.real))].real)
        pi = l * r / float(l @ r)
        mu = np.zeros(1 << self.w)
        entropy = 0.0
        for x, (wt, (u, v)) in enumerate(zip(self.weights(lam), self.edges)):
            if wt > 0 and r[u] > 0:
                step = wt * r[v] / (rho * r[u])
                mu[x] = pi[u] * step
                if step > 0:
                    entropy -= mu[x] * math.log2(step)
        return mu, entropy


def _argmin_convex(f, hi: float = 64.0) -> tuple[float, float]:
    """Minimum of a convex function on [0, inf), found on [0, hi]."""
    res = minimize_scalar(f, bounds=(0.0, hi), method="bounded",
                          options={"xatol": 1e-11, "maxiter": 500})
    best = min((res.x, res.fun), (0.0, f(0.0)), key=lambda t: t[1])
    if best[0] > 0.9 * hi:
        raise OracleError("pressure-dual minimiser at the edge of its bracket")
    return best


def pressure_capacity(spec: dict) -> dict:
    """Capacity by the pressure dual, certified: the Perron chain at the
    minimiser must satisfy every row and have entropy equal to the dual
    value (strong duality), else the oracle raises."""
    w, rows = system_rows(spec)
    pr = Pressure(w, rows)
    r = len(pr.soft)
    if r == 0:
        lam = ()
    elif r == 1:
        lam = (_argmin_convex(lambda x: pr.dual((x,)))[0],)
    elif r == 2:
        inner = lambda x: _argmin_convex(lambda y: pr.dual((x, y)))
        x = _argmin_convex(lambda x: inner(x)[1])[0]
        lam = (x, inner(x)[0])
    else:
        raise OracleError("pressure oracle handles at most two soft rows")
    value = pr.dual(lam)
    mu, entropy = pr.perron_window_measure(lam)
    slack = [float(c @ mu) - b for c, b in pr.soft]
    if abs(entropy - value) > 1e-8 or any(s > 1e-8 for s in slack):
        raise OracleError(f"pressure dual not certified: H={entropy} dual={value} "
                          f"slack={slack}")
    return {"value": value, "lambda": lam}


def spectral_capacity(forbidden: list[list[int]]) -> float:
    """log2 spectral radius of the de Bruijn graph without the forbidden words."""
    w = len(forbidden[0])
    coeffs = [Fraction(0)] * (1 << w)
    for word in forbidden:
        coeffs[int("".join(map(str, word)), 2)] = Fraction(1)
    return Pressure(w, [(coeffs, Fraction(0))]).dual(())


# ---------------------------------------------------------------------------
# Product measures
# ---------------------------------------------------------------------------

def h2_rows(rows: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a probability matrix."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0, -rows * np.log2(rows), 0.0)
    return terms.sum(axis=1)


def averaged_window(rows: np.ndarray, w: int) -> np.ndarray:
    """Averaged cyclic window distribution of a 1-D product measure, by
    summing per-placement outer products written as one einsum."""
    n = len(rows)
    stacked = np.stack([np.roll(rows, -j, axis=0) for j in range(w)])  # (w, n, q)
    letters = "abcdefgh"[:w]
    expr = ",".join(f"u{c}" for c in letters) + "->" + letters
    return np.einsum(expr, *stacked).reshape(-1) / n


def distance_to_system(mu: np.ndarray, spec: dict) -> float:
    w, rows = system_rows(spec)
    if len(rows) == 1 and all(c in (0, 1) for c in rows[0][0]):
        ind = np.array([float(c) for c in rows[0][0]])
        return max(0.0, float(ind @ mu) - float(rows[0][1]))
    return tv_distance_lp(mu, rows)


def relaxed_spec(spec: dict, eps: Fraction) -> dict:
    """For a single-cap system the eps-ball around Γ is the cap raised by eps."""
    if eps == 0:
        return spec
    if spec["kind"] != "rll":
        raise OracleError("relaxed capacity oracle covers rll systems")
    return {**spec, "p": str(Fraction(spec["p"]) + eps)}


def curve_max(p: float) -> dict:
    """max (H2(x) + H2(p/x)) / 2 over sqrt(p) <= x <= 1, by a grid and a
    bounded Brent refinement around the best grid point."""
    if p >= 0.25:
        return {"value": 1.0}
    h = lambda t: 0.0 if t <= 0.0 or t >= 1.0 else -t * math.log2(t) - (1 - t) * math.log2(1 - t)
    g = lambda x: 0.5 * (h(x) + h(p / x))
    lo = math.sqrt(p)
    xs = np.linspace(lo, 1.0, 4001)
    vals = [g(x) for x in xs]
    i = int(np.argmax(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    res = minimize_scalar(lambda x: -g(x), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-13})
    return {"value": max(-res.fun, vals[i])}


def best_multichoice(n: int, w: int, forbidden: list[int]) -> int:
    """Maximum fillings of a cyclic multi-choice word (cells are nonempty
    subsets of {0, 1}) all of whose fillings avoid the forbidden patterns,
    by enumerating every word."""
    words = np.array(list(itertools.product((1, 2, 3), repeat=n)), dtype=np.int64)
    safe = np.ones(len(words), dtype=bool)
    for pat in forbidden:
        bits = [(pat >> (w - 1 - j)) & 1 for j in range(w)]
        hit = np.ones(words.shape, dtype=bool)
        for j, bit in enumerate(bits):
            hit &= (np.roll(words, -j, axis=1) >> bit) & 1 == 1
        safe &= ~hit.any(axis=1)
    fillings = np.prod(np.where(words == 3, 2, 1), axis=1)
    return int(fillings[safe].max())


# ---------------------------------------------------------------------------
# Sampling: SplitMix64, vectorised over cells, and the exact cyclic law
# ---------------------------------------------------------------------------

GAMMA, MIX1, MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def splitmix64(seeds: np.ndarray, count: int) -> np.ndarray:
    """(len(seeds), count) SplitMix64 outputs; row i is the stream of seeds[i]."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA)
    z = np.asarray(seeds, dtype=np.uint64)[:, None] + steps[None, :]
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def sample_bits(measure: dict, seeds, side: int) -> np.ndarray:
    """Words drawn by inverse CDF from a periodic binary product measure."""
    u = (splitmix64(np.asarray(seeds, dtype=np.uint64), side) >> np.uint64(11)) \
        .astype(np.float64) * 2.0 ** -53
    ones = np.array(measure["ones"])[np.arange(side) % measure["period"]]
    return (u >= 1.0 - ones).astype(np.int64)


def inside_probability(ones: np.ndarray, cap: int) -> float:
    """Exact P(at most `cap` cyclic windows read 111) for independent bits
    with P(bit i = 1) = ones[i]; transfer matrix over (head, tail, count)."""
    n = len(ones)
    top = cap + 1                              # the "over the cap" count
    prob = lambda i, b: ones[i] if b else 1.0 - ones[i]
    mass = np.zeros((4, 4, top + 1))
    for head in range(4):
        mass[head, head, 0] = prob(0, head >> 1) * prob(1, head & 1)
    for i in range(2, n):
        nxt = np.zeros_like(mass)
        for tail in range(4):
            for bit in (0, 1):
                chunk = prob(i, bit) * mass[:, tail, :]
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


# ---------------------------------------------------------------------------
# Self-checks on tiny inputs
# ---------------------------------------------------------------------------

SPLITMIX_PUBLISHED = {
    0: [0xE220A8397B1DCDAF],
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423,
              4593380528125082431, 16408922859458223821],
}


def self_check() -> list[str]:
    """Cross-check every oracle on tiny inputs; returns the failures."""
    bad = []
    # cyclic / non-cyclic transfer counts vs enumeration
    for n in range(4, 12):
        words = all_words(n)
        for w, weights, budget in ((1, [0, 1], 3), (2, [0, 0, 0, 1], 0),
                                   (2, [0, 1, 1, 2], 5), (3, [0] * 7 + [1], 1),
                                   (4, [0] * 15 + [1], 0)):
            tot = cyclic_window_counts(words, w) @ np.array(weights)
            if cyclic_budget_count(n, w, weights, budget) != int((tot <= budget).sum()):
                bad.append(f"cyclic count n={n} w={w}")
        for w, forb in ((2, {3}), (3, {7}), (3, {2, 7})):
            idx = np.zeros_like(words[:, : n - w + 1])
            for j in range(w):
                idx = idx * 2 + words[:, j: n - w + 1 + j]
            ok = ~np.isin(idx, list(forb)).any(axis=1)
            if noncyclic_forbidden_count(n, w, forb) != int(ok.sum()):
                bad.append(f"non-cyclic count n={n} w={w}")
    # the rll(0, 3/10) reference value and the Fibonacci/Lucas numbers
    if count_1d({"kind": "rll", "k": 0, "p": "0.3"}, 10) != 176:
        bad.append("binomial count")
    fib, luc = [0, 1], [2, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
        luc.append(luc[-1] + luc[-2])
    for n in range(4, 21):
        if count_1d({"kind": "rll", "k": 1, "p": "0"}, n) != luc[n] or \
                count_1d_noncyclic({"kind": "rll", "k": 1, "p": "0"}, n) != fib[n + 2]:
            bad.append(f"Lucas/Fibonacci n={n}")
    # hard squares transfer vs 2-D enumeration
    hs = {"kind": "axial", "factor": {"kind": "rll", "k": 1, "p": "0"}, "dim": 2,
          "mode": "strict"}
    for n in (3, 4):
        cubes = all_words(n * n).reshape(-1, n, n)
        free = (_ones_run_hits(cubes, 2, 1) == 0) & (_ones_run_hits(cubes, 2, 2) == 0)
        if count_hard_squares(n, True) != int(free.sum()) or \
                count_axial_enumerated(hs, n) != int(free.sum()):
            bad.append(f"hard squares cyclic n={n}")
        flat = (cubes[:, :, :-1] & cubes[:, :, 1:]).any(axis=(1, 2)) | \
               (cubes[:, :-1, :] & cubes[:, 1:, :]).any(axis=(1, 2))
        if count_hard_squares(n, False) != int((~flat).sum()):
            bad.append(f"hard squares non-cyclic n={n}")
    # grouped LP counting vs one LP per word, and the LP vs the closed form
    gamma = {"kind": "linear", "window": 2,
             "rows": [[["0", "0.5", "0.5", "1"], "0.4"], [["0", "0", "0", "1"], "0.15"]]}
    w, rows = system_rows(gamma)
    n = 7
    per_word = [tv_distance_lp(c / n, rows) for c in cyclic_window_counts(all_words(n), w)]
    if count_relaxed(gamma, n, Fraction("0.05")) != sum(d <= 0.05 for d in per_word):
        bad.append("grouped relaxed count")
    rng = np.random.default_rng(1)
    cap = [([Fraction(0)] * 7 + [Fraction(1)], Fraction(1, 20))]
    for _ in range(5):
        mu = rng.dirichlet(np.ones(8))
        if abs(tv_distance_lp(mu, cap) - max(0.0, mu[7] - 0.05)) > 1e-9:
            bad.append("LP distance vs closed form")
    # pressure dual: closed forms
    if abs(pressure_capacity({"kind": "rll", "k": 1, "p": "0"})["value"]
           - math.log2((1 + 5 ** 0.5) / 2)) > 1e-12:
        bad.append("pressure dual, golden mean")
    if abs(pressure_capacity({"kind": "rll", "k": 2, "p": "0.2"})["value"] - 1.0) > 1e-12:
        bad.append("pressure dual, slack cap")
    # product-measure helpers vs direct loops
    rows3 = rng.dirichlet(np.ones(2), size=5)
    direct = np.zeros(8)
    for u in range(5):
        for x in range(8):
            bits = [(x >> (2 - j)) & 1 for j in range(3)]
            direct[x] += np.prod([rows3[(u + j) % 5][b] for j, b in enumerate(bits)])
    if np.abs(direct / 5 - averaged_window(rows3, 3)).max() > 1e-15:
        bad.append("averaged window")
    grid = np.linspace(1e-6, 1 - 1e-6, 801)
    hh = h2_rows(np.stack([grid, 1 - grid], axis=1))
    for p in (0.01, 0.1):
        feas = grid[:, None] * grid[None, :] <= p
        coarse = float(np.max(np.where(feas, (hh[:, None] + hh[None, :]) / 2, -1)))
        if not coarse - 1e-12 <= curve_max(p)["value"] <= coarse + 1e-2:
            bad.append(f"curve p={p}")
    # SplitMix64 vs published values, and the exact law vs enumeration
    for seed, expect in SPLITMIX_PUBLISHED.items():
        got = splitmix64(np.array([seed]), len(expect))[0].tolist()
        if got != expect:
            bad.append(f"SplitMix64 seed {seed}")
    ones = np.array([0.5, 0.3, 0.3] * 4)
    words = all_words(12)
    p_word = np.prod(np.where(words == 1, ones, 1 - ones), axis=1)
    k111 = cyclic_window_counts(words, 3)[:, 7]
    for cap_ in (0, 1, 2):
        if abs(p_word[k111 <= cap_].sum() - inside_probability(ones, cap_)) > 1e-12:
            bad.append(f"exact cyclic law cap={cap_}")
    return bad
