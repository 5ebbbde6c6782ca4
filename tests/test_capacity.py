"""Capacity optimisation, the spectral-radius oracle, and dimension bounds."""
import math

import numpy as np
import pytest

from semicap.lattice_core import LOG2, Alphabet, Shape, ValidationError
from semicap import capacity
from semicap.capacity import (
    _cycle_components,
    _hessians,
    _perron,
    _slice_duals,
    _tilted,
    capacity_1d,
    elimeysch_lower_bound,
    internal_capacity_sequence,
    pressure_dual,
    shift_invariant_equations,
    transfer_matrix_capacity,
)
from semicap.scs_model import (
    ConstraintSet,
    EmptySystemError,
    LinearConstraint,
    fully_constrained,
    rll_constraint,
)

BIN = Alphabet.binary()
GOLDEN_RATE = math.log2((1 + math.sqrt(5)) / 2)  # no-adjacent-ones capacity
# Window 2: ones density <= 0.4 and mu(11) <= 0.15.
TWO_ROW = ConstraintSet(BIN, Shape.segment(2), (
    LinearConstraint((0, 0.5, 0.5, 1), 0.4),
    LinearConstraint((0, 0, 0, 1), 0.15),
))


def _entropy(p):
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def test_transfer_matrix_known_rates():
    assert transfer_matrix_capacity([(1, 1)]) \
        == pytest.approx(GOLDEN_RATE, abs=1e-9)
    # no-three-ones: the tribonacci constant
    trib = 1.839286755214161
    assert transfer_matrix_capacity([(1, 1, 1)]) \
        == pytest.approx(math.log2(trib), abs=1e-9)


def test_transfer_matrix_edge_cases():
    # nothing forbidden: full binary shift
    assert transfer_matrix_capacity([], BIN) == pytest.approx(1.0)
    # forbidding one of three symbols leaves a free 2-letter shift
    tri = Alphabet.of_size(3)
    assert transfer_matrix_capacity([(2,)], tri) == pytest.approx(1.0)
    # forbidding every symbol empties the language
    with pytest.raises(ValidationError):
        transfer_matrix_capacity([(0,), (1,)], BIN)
    with pytest.raises(ValidationError):
        transfer_matrix_capacity([(1, 1), (0, 0, 0)])  # mixed lengths


def test_shift_invariance_equations():
    assert shift_invariant_equations(1, BIN) == []
    eqs = shift_invariant_equations(2, BIN)
    assert len(eqs) == 2
    # a genuinely shift-invariant pair distribution passes every row
    eta = np.array([0.4, 0.2, 0.2, 0.2])
    for row in eqs:
        assert row @ eta == pytest.approx(0.0, abs=1e-12)
    # prefix marginal (0.6, 0.4) != suffix marginal (0.55, 0.45): violated
    skew = np.array([0.35, 0.25, 0.2, 0.2])
    assert max(abs(row @ skew) for row in eqs) > 1e-3


def test_capacity_hard_systems_match_spectral_oracle():
    cap1 = capacity_1d(rll_constraint(1, 0.0))
    assert cap1.converged
    assert cap1.value == pytest.approx(GOLDEN_RATE, abs=1e-9)
    cap2 = capacity_1d(rll_constraint(2, 0.0))
    oracle = transfer_matrix_capacity([(1, 1, 1)])
    assert cap2.value == pytest.approx(oracle, abs=1e-9)
    # forbidding 00 and 11 over three symbols: hard rows prune the graph
    tri = Alphabet.of_size(3)
    res = capacity_1d(fully_constrained(tri, Shape.segment(2), [(0, 0), (1, 1)]))
    assert res.converged
    assert res.value == pytest.approx(
        transfer_matrix_capacity([(0, 0), (1, 1)], tri), abs=1e-9)


def test_capacity_free_equality_multiplier():
    # window 1, mu(1) == 0.3: the multiplier is free and the capacity is H2(0.3)
    gamma = ConstraintSet(BIN, Shape.segment(1), (LinearConstraint((0, 1), 0.3, "=="),))
    res = capacity_1d(gamma)
    assert res.converged
    assert res.value == pytest.approx(_entropy(np.array([0.3, 0.7])), abs=1e-12)


def test_capacity_inconsistent_equalities_are_empty():
    gamma = ConstraintSet(BIN, Shape.segment(1), (
        LinearConstraint((0, 1), 0.3, "=="),
        LinearConstraint((0, 1), 0.4, "=="),
    ))
    with pytest.raises(EmptySystemError):
        capacity_1d(gamma)


def test_capacity_two_row_certificate():
    res = capacity_1d(TWO_ROW)
    assert res.converged and res.duality_gap <= 1e-9
    assert TWO_ROW.contains(res.optimizer, tol=1e-9)
    assert _shift_invariant(res.optimizer, 2, tol=1e-9)
    # value is the conditional entropy of the returned optimizer
    probs = res.optimizer.float_probs()
    cond = _entropy(probs) - _entropy(probs.reshape(2, 2).sum(axis=1))
    assert res.value == pytest.approx(cond, abs=1e-12)


def _shift_invariant(dist, k, tol):
    """Whether a distribution on length-k windows meets every
    shift-invariance equation to within `tol`."""
    probs = dist.float_probs()
    return all(abs(float(r @ probs)) <= tol
               for r in shift_invariant_equations(k, dist.alphabet))


def _window2_row(alphabet, fn):
    q = alphabet.size
    return tuple(float(fn(a, b)) for a in range(q) for b in range(q))


def test_capacity_on_reducible_graphs():
    """Hard rows that split the de Bruijn graph into components, with soft
    rows on top; the components tie at lam = 0."""
    q4 = Alphabet.of_size(4)

    def half(a):
        return a >= 2

    cases = [
        # only the constant words 0^n and 1^n remain: capacity 0
        (ConstraintSet(BIN, Shape.segment(2), (
            LinearConstraint((0, 1, 1, 0), 0.0, "=="),
            LinearConstraint((0, 0, 0, 1), 0.3),
        )), 0.0),
        # 01 forbidden: the edge 1 -> 0 lies on no cycle
        (ConstraintSet(BIN, Shape.segment(2), (
            LinearConstraint((0, 1, 0, 0), 0.0, "=="),
            LinearConstraint((0, 0, 0, 1), 0.3),
        )), 0.0),
        # two full binary shifts on {0, 1} and {2, 3}; the mass of the
        # second is capped, so the first carries the capacity
        (ConstraintSet(q4, Shape.segment(2), (
            LinearConstraint(_window2_row(q4, lambda a, b: half(a) != half(b)), 0.0, "=="),
            LinearConstraint(_window2_row(q4, lambda a, b: half(a)), 0.3),
        )), 1.0),
        # the same two shifts joined one way, {0, 1} -> {2, 3}
        (ConstraintSet(q4, Shape.segment(2), (
            LinearConstraint(_window2_row(q4, lambda a, b: half(a) and not half(b)), 0.0, "=="),
            LinearConstraint(_window2_row(q4, lambda a, b: a == b == 3), 0.1),
        )), 1.0),
    ]
    for gamma, value in cases:
        res = capacity_1d(gamma)
        assert res.converged and res.duality_gap <= 1e-9
        assert res.value == pytest.approx(value, abs=1e-12)
        assert gamma.contains(res.optimizer, tol=1e-9)
        assert _shift_invariant(res.optimizer, 2, tol=1e-9)


def test_capacity_budget_stops_short_inside_gamma():
    g = rll_constraint(2, 0.05)
    res = capacity_1d(g, max_iter=2)
    assert not res.converged and res.iterations == 2
    assert res.duality_gap > 1e-9
    assert g.contains(res.optimizer, tol=1e-9)
    assert _shift_invariant(res.optimizer, 3, tol=1e-9)


def test_site_slice_dual_on_random_slices():
    """The one-state dual on random feasible 2-4-row slices meets every row
    and never ends below the feasible point it started from."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        q, r = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        rows = rng.random((r, q)) * (rng.random((r, q)) < 0.8)
        start = rng.dirichlet(np.ones(q))
        # some rows tight at the start, the others with a little slack
        bounds = rows @ start + rng.random(r) * 0.05 * (rng.random(r) < 0.6)
        sol = pressure_dual(rows, bounds, np.zeros(r, dtype=bool), q, 1, start,
                            max_iter=100, gap_tol=1e-12)
        assert sol.converged
        assert np.all(rows @ sol.measure <= bounds + 1e-12)
        assert sol.value == pytest.approx(_entropy(sol.measure), abs=1e-12)
        assert sol.value >= _entropy(start) - 1e-12


def test_pressure_dual_rejects_a_row_unmet_on_the_windows_the_hard_rows_leave():
    # row 0 is hard and leaves symbol 2 alone; row 1 caps symbol 2 at 0.5,
    # which no measure on symbol 2 meets although the simplex does
    rows, bounds, start = [[1, 1, 0], [0, 0, 1]], [0.0, 0.5], np.array([0.2, 0.3, 0.5])
    with pytest.raises(EmptySystemError):
        pressure_dual(rows, bounds, [False, False], 3, 1, start, max_iter=200,
                      gap_tol=1e-12)
    # on a stack, that slice keeps its start and multipliers, and the other
    # (symbol 0 forbidden) is solved as its own call solves it
    lins = np.array([rows, [[1, 0, 0], [0, 0, 1]]], dtype=float)
    rhs, lam = np.array([bounds, bounds]), np.array([[0.0, 1.5], [0.0, 0.5]])
    mu, lam_out = _slice_duals(lins, rhs, np.array([start, start]), lam, max_iter=200,
                               gap_tol=1e-12)
    assert np.array_equal(mu[0], start) and np.array_equal(lam_out[0], lam[0])
    sol = pressure_dual(lins[1], bounds, [False, False], 3, 1, start, lam[1],
                        max_iter=200, gap_tol=1e-12)
    assert sol.converged and sol.value == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(mu[1], sol.measure) and np.array_equal(lam_out[1], sol.lam)


def test_pressure_dual_bound_below_value_is_not_converged():
    # the start charges symbol 0, which the hard row 0 forbids; stopped
    # after 1-3 iterations, the returned measure mixes toward it and its
    # entropy exceeds the bound, which then certifies nothing
    start = np.array([0.3, 0.05, 0.65])
    for max_iter in (1, 2, 3):
        sol = pressure_dual([[1, 0, 0], [0, 1, 0]], [0.0, 0.1], [False, False], 3, 1,
                            start, max_iter=max_iter, gap_tol=1e-12)
        assert sol.bound < sol.value - 1e-12
        assert not sol.converged
    sol = pressure_dual([[1, 0, 0], [0, 1, 0]], [0.0, 0.1], [False, False], 3, 1,
                        start, max_iter=200, gap_tol=1e-12)
    assert sol.converged and sol.value == pytest.approx(_entropy(np.array([0.1, 0.9])))


def test_slice_duals_match_pressure_dual_per_start():
    """The stacked one-state dual returns, for every slice of the stack, the
    measure and multipliers of that slice's own `pressure_dual` call, bit
    for bit; a slice whose call raises keeps its start and multipliers."""
    rng = np.random.default_rng(23)
    raised = stopped_short = fell_back = hard = 0
    for trial in range(150):
        # the last 30 stacks have 9 symbols, whose entropies add 8 or more
        # terms (`_entropy_vec` row by row)
        q = int(rng.integers(2, 5)) if trial < 120 else 9
        r = int(rng.integers(1, 5))
        s, max_iter = int(rng.integers(1, 10)), (2, 100)[trial % 2]
        lins = rng.random((s, r, q)) * (rng.random((s, r, q)) < 0.8)
        starts = rng.dirichlet(np.ones(q), size=s)
        rhs = (lins @ starts[:, :, None])[:, :, 0]
        rhs += rng.random((s, r)) * 0.05 * (rng.random((s, r)) < 0.6)
        # hard rows (bound at the row's minimum) and rows no point meets
        low = lins.min(axis=2)
        rhs = np.where(rng.random((s, r)) < 0.15, low, rhs)
        rhs = np.where(rng.random((s, r)) < 0.05, low - 0.1, rhs)
        lam = 3.0 * rng.random((s, r)) * (rng.random((s, r)) < 0.5)
        mu, lam_out = _slice_duals(lins, rhs, starts, lam, max_iter=max_iter,
                                   gap_tol=1e-12)
        for i in range(s):
            try:
                sol = pressure_dual(lins[i], rhs[i], np.zeros(r, dtype=bool), q, 1,
                                    starts[i], lam[i], max_iter=max_iter, gap_tol=1e-12)
            except ValidationError:
                raised += 1
                want = starts[i], lam[i]
            else:
                stopped_short += not sol.converged
                fell_back += np.array_equal(sol.measure, starts[i])
                hard += bool((rhs[i] - low[i] <= 1e-15).any())
                want = sol.measure, sol.lam
            assert np.array_equal(mu[i], want[0]), (trial, i)
            assert np.array_equal(lam_out[i], want[1]), (trial, i)
    assert raised and stopped_short and fell_back and hard


def _window_form_hessian(c, eta, q, k):
    """The Hessian of log2 rho(A_lam) through the window chain on the
    support of eta: x -> y when suffix(x) == prefix(y), with probability
    eta_y / pi(prefix y), pi the prefix law; ln 2 times the asymptotic
    covariance of the rows c from the fundamental solve over windows."""
    s = q ** (k - 1)
    x = np.flatnonzero(eta > 0.0)
    pi = eta.reshape(s, q).sum(axis=1)
    f = (c - (c @ eta)[:, None])[:, x]
    p = (x[:, None] % s == x[None, :] // q) * (eta[x] / pi[x // q])[None, :]
    y = np.linalg.solve(np.eye(len(x)) - p + eta[x][None, :], f.T)
    cross = (f * eta[x]) @ y
    return LOG2 * (cross + cross.T - (f * eta[x]) @ f.T)


def _random_slice(rng, q, k, r):
    """Rows, multipliers, windows and components of a random tilted slice:
    a hard row removes the windows it charges, an `==` row's multiplier may
    be negative, and at q = 4 about half the slices keep {0, 1} and {2, 3}
    apart, which splits the graph into two components."""
    x = np.arange(q ** k)
    allowed = rng.random(q ** k) >= rng.uniform(0.0, 0.4)
    if q == 4 and rng.random() < 0.5:
        allowed &= (x // q ** (k - 1) >= 2) == (x % q >= 2)
    allowed, comps = _cycle_components(allowed, q, k)
    c = rng.random((r, q ** k)) * (rng.random((r, q ** k)) < 0.8)
    lam = rng.uniform(-10.0, 30.0, r)   # negative on `==` rows
    return c, lam, allowed, comps


def test_state_level_hessian_matches_window_chain():
    """`_hessians` (k >= 2) against the window-chain form on the same Perron
    measures, on random stacks; each slice of a stack whose supports differ
    equals its own one-slice call bit for bit."""
    rng = np.random.default_rng(29)
    split = 0
    for _ in range(300):
        q = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5 if q == 2 else 4))
        r, size = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        cs, etas = [], []
        while len(cs) < size:
            c, lam, allowed, comps = _random_slice(rng, q, k, r)
            if not comps:
                continue
            b, slack = c.mean(axis=1), np.full(r, 1e-13)
            cs.append(c)
            etas.append(_tilted(c, b, slack, slack, allowed, comps, lam, q, k)[1])
            split += len(comps) > 1
        c, eta = np.array(cs), np.array(etas)
        hess = _hessians(c, eta, q, k)
        for i in range(size):
            want = _window_form_hessian(c[i], eta[i], q, k)
            assert np.abs(hess[i] - want).max() <= 1e-13
            assert np.array_equal(hess[i], _hessians(c[i:i + 1], eta[i:i + 1], q, k)[0])
    assert split


def test_perron_root_past_the_newton_cap(monkeypatch):
    """A tilted q = 4, k = 4 slice whose Perron root lies so far below its
    row and column sums that Newton's descent from them needs more than
    `_PERRON_RESTART` steps: `_perron` restarts from a Collatz-Wielandt
    bound and returns numpy's spectral radius and its Perron vectors."""
    rng = np.random.default_rng(29)
    c, lam, allowed, comps = _random_slice(rng, 4, 4, int(rng.integers(1, 4)))
    e = lam @ c
    w = np.exp2(e.min(where=allowed, initial=np.inf) - e, out=np.zeros(len(e)), where=allowed)
    x = np.arange(4 ** 4)
    a = np.zeros((64, 64))
    a[x // 4, x % 64] = w
    block = a[np.ix_(comps[0], comps[0])]
    solves, solve = [], np.linalg.solve
    monkeypatch.setattr(capacity.np.linalg, "solve", lambda *args: solves.append(0) or solve(*args))
    root, r, l = _perron(block)
    monkeypatch.undo()
    assert len(solves) > capacity._PERRON_RESTART
    want = np.abs(np.linalg.eigvals(block)).max()
    assert abs(root - want) <= 1e-10 * want
    assert np.abs(block @ r - root * r).max() <= 1e-10 * root
    assert np.abs(l @ block - root * l).max() <= 1e-10 * root


def test_state_level_hessian_is_the_derivative_of_the_mean():
    """The Hessian of log2 rho(A_lam) is the derivative of its gradient
    -c . eta(lam); central differences of that gradient, eta taken from
    numpy's eigenvectors of the tilted matrix, agree with `_hessians`."""
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 40:
        q = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        c, lam, allowed, comps = _random_slice(rng, q, k, int(rng.integers(1, 4)))
        # one component, not a lone cycle (whose Hessian is 0: no relative scale)
        if len(comps) != 1 or allowed.sum() == len(comps[0]):
            continue
        # central differences resolve entries down to about eps / h = 1e-11;
        # smaller multipliers keep the Hessian well above that
        lam /= 3.0
        s, x, st = q ** (k - 1), np.arange(q ** k), comps[0]

        def eta_at(lam):
            w = np.where(allowed, np.exp2(-(lam @ c)), 0.0)
            a = np.zeros((s, s))
            a[x // q, x % s] = w
            vecs = []
            for m in (a[np.ix_(st, st)], a[np.ix_(st, st)].T):
                vals, v = np.linalg.eig(m)
                vecs.append(np.zeros(s))
                vecs[-1][st] = np.abs(v[:, np.argmax(vals.real)].real)
            r, l = vecs
            eta = l[x // q] * w * r[x % s]
            return eta / eta.sum()

        hess = _hessians(c[None], eta_at(lam)[None], q, k)[0]
        h, diff = 1e-5, np.zeros_like(hess)
        for j in range(len(lam)):
            step = h * np.eye(len(lam))[j]
            diff[:, j] = -(c @ (eta_at(lam + step) - eta_at(lam - step))) / (2 * h)
        assert np.abs(diff - hess).max() <= 1e-6 * np.abs(hess).max()
        checked += 1


def test_capacity_product_alphabet_oracle():
    """q = 2^j symbols read as bit 0 and j - 1 free bits: capping the
    windows whose two symbols both have bit 0 set caps 11 in the bit-0
    sequence, so the capacity is that of rll(1, p) plus j - 1."""
    for j, p in ((2, 0.1), (3, 0.05), (4, 0.1), (5, 0.02)):
        q = 2 ** j
        row = tuple(float(a & b & 1) for a in range(q) for b in range(q))
        gamma = ConstraintSet(Alphabet.of_size(q), Shape.segment(2), (LinearConstraint(row, p),))
        res = capacity_1d(gamma)
        assert res.converged
        assert res.value == pytest.approx(capacity_1d(rll_constraint(1, p)).value + (j - 1),
                                          abs=1e-12)


def test_capacity_soft_cap_value():
    for gamma, value in ((rll_constraint(2, 0.05), 0.97593506545),
                         (rll_constraint(1, 0.1), 0.93227315407),
                         (rll_constraint(3, 0.02), 0.98616079775),
                         (TWO_ROW, 0.96969485516)):
        res = capacity_1d(gamma)
        assert res.converged and res.duality_gap <= 1e-9
        assert res.value == pytest.approx(value, abs=1e-9)


def test_capacity_saturates_at_uniform_feasibility():
    # cap above the uniform measure's frequency: nothing binds
    assert capacity_1d(rll_constraint(1, 0.25)).value == pytest.approx(1.0)
    assert capacity_1d(rll_constraint(2, 0.2)).value == 1.0


def test_optimizer_is_feasible_and_shift_invariant():
    g = rll_constraint(2, 0.05)
    res = capacity_1d(g)
    eta = res.optimizer
    assert g.contains(eta, tol=1e-7)
    assert _shift_invariant(eta, 3, tol=1e-7)
    probs = eta.float_probs()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    # prefix and suffix pair marginals of the optimizing triple agree
    grid = probs.reshape(2, 2, 2)
    np.testing.assert_allclose(grid.sum(axis=2).ravel(),
                               grid.sum(axis=0).ravel(), atol=1e-7)


def test_internal_capacity_sequence_rates():
    rows = internal_capacity_sequence(rll_constraint(1, 0.0), [4, 6, 8, 10])
    counts = {r.side: r.count for r in rows}
    assert counts == {4: 7, 6: 18, 8: 47, 10: 123}
    for r in rows:
        assert r.rate == pytest.approx(math.log2(r.count) / r.side)
    # rates hover near the true capacity already at these sides
    assert abs(rows[-1].rate - GOLDEN_RATE) < 0.01


def test_count_rates_rise_under_the_trace_bound():
    # N_n <= trace(A_lam^n) 2^(n lam.b) <= #states * 2^(n D(lam)): the
    # cyclic count rate sits below the certified dual value plus
    # log2(#de Bruijn states)/n, and climbs toward capacity
    g = rll_constraint(2, 0.05)
    cap = capacity_1d(g)
    rows = internal_capacity_sequence(g, [100, 400])
    rates = [r.rate for r in rows]
    assert [round(r, 5) for r in rates] == [0.95876, 0.96945]
    assert rates[0] < rates[1]
    states = g.alphabet.size ** (len(g.shape) - 1)
    for r in rows:
        assert r.rate < cap.value + cap.duality_gap + math.log2(states) / r.side


def test_dimension_interpolation_bound():
    b = elimeysch_lower_bound(0.976, 3)
    assert b.value == pytest.approx(1 + 3 * (0.976 - 1.0), abs=1e-12)
    assert not b.degenerate
    deep = elimeysch_lower_bound(0.976, 42)
    assert deep.degenerate and deep.value < 0
    assert not elimeysch_lower_bound(0.976, 41).degenerate
    assert elimeysch_lower_bound(1.0, 7).value == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [2.5, 0])
def test_dimension_bound_rejects_fractional_and_small_dimensions(dim):
    # a fractional dimension is not read as a bound for d = 2.5
    with pytest.raises(ValidationError, match="dimension"):
        elimeysch_lower_bound(0.9, dim)


def test_capacity_rejects_non_window_shapes():
    gapped = ConstraintSet(BIN, Shape([(0,), (2,)]),
                           [LinearConstraint((0, 0, 0, 1), 0.1, "<=")])
    with pytest.raises(ValidationError):
        capacity_1d(gapped)
