"""Check each operation's result against the oracles.

`Checker.check(op, result)` returns (ok, detail).  Expected values are
computed once per distinct input and reused across rounds; nothing is
compared against a stored copy of an earlier run's output.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from scipy.stats import binom

import oracles

TOL = 1e-9        # agreement of two computations of one float
CERT_TOL = 1e-8   # slack allowed on a certificate (as in the program)
# Two-sided tail mass of the exact binomial acceptance region for a sampled
# inside-fraction (about 5 standard errors for a symmetric law).  A normal
# 4-s.e. band is not used: with 80 trials and an inside law of 0.996 it
# rejects a correct sampler on 0.4 % of seeds.
LAW_ALPHA = 1e-6


class Checker:
    def __init__(self) -> None:
        self._memo: dict[str, object] = {}

    def _cached(self, tag: str, spec, compute):
        key = tag + json.dumps(spec, sort_keys=True)
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def capacity(self, spec: dict) -> float:
        return self._cached("cap", spec, lambda: oracles.pressure_capacity(spec)["value"])

    def check(self, op: dict, r) -> tuple[bool, str]:
        if isinstance(r, dict) and "error" in r:
            return False, r["error"]
        return getattr(self, "_" + op["op"])(op, r)

    # -- counting ------------------------------------------------------------

    def _count_admissible(self, op, r):
        want = self._cached("count", {k: op[k] for k in op if k != "id"},
                            lambda: oracles.expected_count(op))
        return r == want, f"got {r}, oracle {want}"

    _count_admissible_noncyclic = _count_admissible

    # -- capacity ------------------------------------------------------------

    def _capacity_1d(self, op, r):
        cap = self.capacity(op["system"])
        w, rows = oracles.system_rows(op["system"])
        mu = np.array(r["probs"])
        pref = mu.reshape(-1, 2).sum(axis=1)
        suff = mu.reshape(2, -1).sum(axis=0)
        cond_h = oracles.h2_rows(mu[None, :])[0] - oracles.h2_rows(pref[None, :])[0]
        ok = r["converged"] and cap - r["gap"] - TOL <= r["value"] <= cap + TOL
        ok &= abs(cond_h - r["value"]) <= TOL and abs(mu.sum() - 1) <= TOL
        ok &= bool(np.abs(pref - suff).max() <= CERT_TOL) and mu.min() >= 0
        ok &= all(float(np.array([float(c) for c in cs]) @ mu) <= float(b) + CERT_TOL
                  for cs, b in rows)
        return ok, (f"value {r['value']!r} gap {r['gap']:.2e}, pressure dual {cap!r}, "
                    f"optimiser entropy {cond_h!r}")

    def _transfer_matrix_capacity(self, op, r):
        want = self._cached("tm", op["forbidden"],
                            lambda: oracles.spectral_capacity(op["forbidden"]))
        return abs(r - want) <= TOL, f"got {r!r}, eigvals {want!r}"

    def _tv_distance_to_set(self, op, r):
        want = oracles.distance_to_system(np.array(op["probs"]), op["system"])
        return abs(r - want) <= TOL, f"got {r!r}, HiGHS {want!r}"

    # -- product measures ----------------------------------------------------

    def _hind_fixed_n(self, op, r):
        spec, eps = op["system"], Fraction(op["eps"])
        if r["rows"] is None:
            return False, "no measure returned"
        rows = np.array(r["rows"])
        w, _ = oracles.system_rows(spec)
        rate = float(oracles.h2_rows(rows).mean())
        dist = oracles.distance_to_system(oracles.averaged_window(rows, w), spec)
        cap = self.capacity(oracles.relaxed_spec(spec, eps))
        ok = r["feasible"] and r["side"] == op["n"] == len(rows)
        ok &= abs(rate - r["value"]) <= 1e-12 and abs(dist - r["distance"]) <= TOL
        ok &= dist <= float(eps) + CERT_TOL and r["value"] <= cap + TOL
        detail = f"value {r['value']!r}, site entropy {rate!r}, distance {dist:.3g}, cap {cap!r}"
        if spec["kind"] == "rll" and spec["k"] == 1 and op["n"] == 2 and eps == 0:
            curve = self._cached("curve", float(Fraction(spec["p"])),
                                 lambda: oracles.curve_max(float(Fraction(spec["p"]))))
            ok &= abs(r["value"] - curve["value"]) <= TOL
            detail += f", curve maximum {curve['value']!r}"
        return bool(ok), detail

    def _hind_com_fixed_n(self, op, r):
        w, rows = oracles.system_rows(op["system"])
        (coeffs, bound), = rows
        forbidden = [i for i, c in enumerate(coeffs) if c > 0]
        n = op["n"]
        best = self._cached("hcom", op["system"] | {"n": n},
                            lambda: oracles.best_multichoice(n, w, forbidden))
        cells = np.array(r["cells"])
        fill = int(np.prod(np.where(cells == 3, 2, 1)))
        ok = r["fillings"] == best == fill
        for pat in forbidden:
            bits = [(pat >> (w - 1 - j)) & 1 for j in range(w)]
            hit = np.ones(n, dtype=bool)
            for j, bit in enumerate(bits):
                hit &= (np.roll(cells, -j) >> bit) & 1 == 1
            ok &= not hit.any()
        ok &= abs(r["value"] - math.log2(best) / n) <= 1e-12
        return bool(ok), f"fillings {r['fillings']}, enumeration {best}, witness {fill}"

    def _curve_optimum_01p(self, op, r):
        p = op["p"]
        want = self._cached("curve", p, lambda: oracles.curve_max(p))["value"]
        hx = oracles.h2_rows(np.array([[r["x"], 1 - r["x"]], [r["y"], 1 - r["y"]]]))
        ok = abs(r["value"] - want) <= TOL and r["x"] >= r["y"]
        ok &= r["x"] * r["y"] <= p * (1 + 1e-9) and abs(hx.mean() - r["value"]) <= 1e-12
        return bool(ok), f"value {r['value']!r}, oracle {want!r}"

    def _axial_lift(self, op, r):
        ones, dim = np.array(op["ones"]), op["dim"]
        n = len(ones)
        base = np.stack([1.0 - ones, ones], axis=1)
        site = np.indices((n,) * dim).sum(axis=0).reshape(-1) % n
        got = np.array(r["rows"])
        ok = r["dim"] == dim and r["side"] == n and np.array_equal(got, base[site])
        rate, rate_1d = oracles.h2_rows(got).mean(), oracles.h2_rows(base).mean()
        ok = ok and abs(rate - rate_1d) <= 1e-12
        return bool(ok), f"lifted rate {rate!r}, 1-D rate {rate_1d!r}"

    # -- sampling ------------------------------------------------------------

    def _sample_word(self, op, r):
        bits = oracles.sample_bits(op["measure"], [op["seed"]], op["side"])[0]
        want = "".join(map(str, bits.tolist()))
        diff = sum(a != b for a, b in zip(r, want)) + abs(len(r) - len(want))
        return diff == 0, f"{diff} cells differ from the vectorised SplitMix64 word"

    def _concentration_check(self, op, r):
        measure, sides, trials = op["measure"], op["sides"], op["trials"]
        w, rows = oracles.system_rows(op["system"])
        (coeffs, bound), = rows
        if w != 3 or coeffs != [0] * 7 + [1] or len(op["eps"]) != 1:
            return False, "oracle covers one eps on rll(2, p)"
        eps = Fraction(op["eps"][0])
        period, ones = measure["period"], np.array(measure["ones"])
        ok, notes = True, []
        got = r["fractions"][0]
        for j, n in enumerate(sides):
            seeds = [op["seed"] ^ (j * trials + t) for t in range(trials)]
            words = oracles.sample_bits(measure, seeds, n)
            k111 = (words & np.roll(words, -1, axis=1) & np.roll(words, -2, axis=1)).sum(axis=1)
            cap = math.floor((bound + eps) * n)
            inside = int((k111 <= cap).sum())
            exact = self._cached("law", measure | {"n": n, "cap": cap},
                                 lambda: oracles.inside_probability(
                                     ones[np.arange(n) % period], cap))
            tail = min(binom.cdf(inside, trials, exact), binom.sf(inside - 1, trials, exact))
            ok &= got[j] == inside / trials and tail > LAW_ALPHA / 2
            notes.append(f"N={n}: {got[j]:.4f} (replayed {inside / trials:.4f}, "
                         f"law {exact:.4f}, tail {tail:.2g})")
        tiled = np.stack([1.0 - ones, ones], axis=1)[np.arange(sides[0]) % period]
        base = max(0.0, float(oracles.averaged_window(tiled, 3)[7]) - float(bound))
        ok &= abs(r["base_distance"] - base) <= 1e-12
        ok &= r["base_feasible"] == (base < float(eps))
        ok &= r["monotone"] == [bool(np.all(np.diff(got) >= -1e-12))]
        return bool(ok), "; ".join(notes)
