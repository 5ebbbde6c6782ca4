"""Workload definitions: the operation list of every workload, as plain data.

An operation is one call into a public `semicap` function whose result is
checked.  Specs are dicts of ints, floats and decimal strings, so the timed
process (`worker.py`) and the oracles (`oracles.py`) read the same inputs
without sharing any code that computes with them.  Decimal strings keep
the exact value of a cap: the worker passes `float(text)` to `semicap`,
the oracles use `Fraction(text)`.

Every workload also runs `PROBES`: one small call into each layer, together
under 1 % of any round, so that every per-layer figure is measured on every
workload; a bypass workload then reads a small constant cost for a layer
instead of no span at all.

Inputs depend on the seed only where that leaves the amount of work
unchanged: the seed permutes the operation order in every workload, draws
the curve grid and the lifted measures in `bounds`, and seeds the sampler in
`sample`.  The counting and optimisation inputs are fixed lists, because
their cost depends strongly on the system (even relabelling 0 and 1 moves
the counter's time by up to 40 %).
"""
from __future__ import annotations

import random

WORKLOADS = ("count-exact", "count-relaxed", "bounds", "sample")


def rll(k: int, p: str) -> dict:
    """Binary system capping the frequency of 1^(k+1) at p."""
    return {"kind": "rll", "k": k, "p": p}


def axial(factor: dict, dim: int, mode: str = "strict") -> dict:
    return {"kind": "axial", "factor": factor, "dim": dim, "mode": mode}


# Two-row polytopes over window 2 and window 3 (patterns in index order,
# first symbol most significant).  Window 2: ones density <= 0.4 and
# mu(11) <= 0.15.  Window 3: half the mass of the two-ones patterns plus
# mu(111) <= 0.3, and mu(111) <= 0.05.
GAMMA_W2 = {"kind": "linear", "window": 2, "rows": [
    [["0", "0.5", "0.5", "1"], "0.4"],
    [["0", "0", "0", "1"], "0.15"],
]}
GAMMA_W3 = {"kind": "linear", "window": 3, "rows": [
    [["0", "0", "0", "0.5", "0", "0.5", "0.5", "1"], "0.3"],
    [["0", "0", "0", "0", "0", "0", "0", "1"], "0.05"],
]}

# The boundary i.i.d. measure of criterion 10 (theta^3 = 0.05) and a
# period-3 measure strictly inside rll(2, 0.05): mu(111) = 0.5*0.3*0.3.
THETA = 0.05 ** (1.0 / 3.0)
MEASURE_IID = {"period": 1, "ones": [THETA]}
MEASURE_PERIODIC = {"period": 3, "ones": [0.5, 0.3, 0.3]}
SAMPLE_SIDES = [300, 900, 2700]
SAMPLE_TRIALS = 80

FAULT_FLOAT_CAP = (
    "rll_constraint stores p as a float and _scale_row builds Fraction(0.3), "
    "which is below 3/10, so words with exactly 3 ones are rejected"
)


def _count_exact() -> list[dict]:
    ops = []
    for n in range(4, 21):
        ops.append({"op": "count_admissible", "system": rll(1, "0"), "n": n, "eps": "0"})
        ops.append({"op": "count_admissible_noncyclic", "system": rll(1, "0"), "n": n})
    for n in range(12, 18):
        ops.append({"op": "count_admissible", "system": rll(2, "0.05"), "n": n, "eps": "0"})
    ops.append({"op": "count_admissible", "system": rll(1, "0.1"), "n": 16, "eps": "0"})
    for mode in ("strict", "weak"):
        ops.append({"op": "count_admissible", "system": axial(rll(1, "0.1"), 2, mode),
                    "n": 4, "eps": "0"})
    hard_squares = axial(rll(1, "0"), 2)
    ops.append({"op": "count_admissible", "system": hard_squares, "n": 5, "eps": "0"})
    ops.append({"op": "count_admissible_noncyclic", "system": hard_squares, "n": 4})
    ops.append({"op": "count_admissible", "system": rll(0, "0.3"), "n": 10, "eps": "0",
                "fault": FAULT_FLOAT_CAP})
    return ops


def _count_relaxed() -> list[dict]:
    return [{"op": "count_admissible", "system": gamma, "n": n, "eps": "0.02"}
            for gamma, sides in ((GAMMA_W2, (12, 13)), (GAMMA_W3, (12,)))
            for n in sides]


def _bounds(rng: random.Random) -> list[dict]:
    ops = []
    for k, p in ((1, "0.1"), (2, "0.05"), (2, "0.2"), (2, "0")):
        ops.append({"op": "capacity_1d", "system": rll(k, p)})
    ops.append({"op": "capacity_1d", "system": GAMMA_W2})
    for forbidden in ([[1, 1]], [[1, 1, 1]], [[1, 1, 1, 1]], [[0, 1, 0], [1, 1, 1]]):
        ops.append({"op": "transfer_matrix_capacity", "forbidden": forbidden})
    for system, n, eps in ((rll(2, "0.05"), 3, "0"), (rll(1, "0.1"), 2, "0"),
                           (rll(1, "0.1"), 4, "0.01"), (GAMMA_W2, 4, "0")):
        ops.append({"op": "hind_fixed_n", "system": system, "n": n, "eps": eps})
    for n in range(4, 9):
        ops.append({"op": "hind_com_fixed_n", "system": rll(1, "0"), "n": n})
    for _ in range(6):
        ops.append({"op": "curve_optimum_01p", "p": rng.uniform(0.002, 0.3)})
    for side, dim in ((6, 2), (5, 3)):
        ones = [rng.uniform(0.05, 0.95) for _ in range(side)]
        ops.append({"op": "axial_lift", "ones": ones, "dim": dim})
    return ops


def _sample(rng: random.Random) -> list[dict]:
    seed = rng.getrandbits(32)
    gamma = rll(2, "0.05")
    ops = []
    for measure in (MEASURE_IID, MEASURE_PERIODIC):
        ops.append({"op": "concentration_check", "measure": measure, "system": gamma,
                    "eps": ["0.01"], "sides": SAMPLE_SIDES, "trials": SAMPLE_TRIALS,
                    "seed": seed})
        # the first word concentration_check draws at each side
        for j, side in enumerate(SAMPLE_SIDES):
            ops.append({"op": "sample_word", "measure": measure,
                        "seed": seed ^ (j * SAMPLE_TRIALS), "side": side})
    return ops


def _probes(rng: random.Random) -> list[dict]:
    return [
        {"op": "count_admissible", "system": rll(1, "0"), "n": 6, "eps": "0"},
        {"op": "tv_distance_to_set", "probs": [0.1, 0.2, 0.3, 0.4], "system": GAMMA_W2},
        {"op": "capacity_1d", "system": rll(0, "0.3")},
        {"op": "transfer_matrix_capacity", "forbidden": [[1, 1]]},
        {"op": "hind_fixed_n", "system": rll(0, "0.3"), "n": 1, "eps": "0", "restarts": 0},
        {"op": "hind_com_fixed_n", "system": rll(1, "0"), "n": 4},
        {"op": "concentration_check", "measure": MEASURE_IID, "system": rll(2, "0.05"),
         "eps": ["0.01"], "sides": [30], "trials": 2, "seed": rng.getrandbits(32)},
    ]


def build(workload: str, seed: int) -> list[dict]:
    """The operation list of one round of `workload` for `seed`, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "count-exact":
        ops = _count_exact()
    elif workload == "count-relaxed":
        ops = _count_relaxed()
    elif workload == "bounds":
        ops = _bounds(rng)
    elif workload == "sample":
        ops = _sample(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops += [dict(op, probe=True) for op in _probes(rng)]
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
