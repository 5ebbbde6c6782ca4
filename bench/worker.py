"""The timed process: imports `semicap`, builds one workload's inputs and runs
whole rounds of its operations.

    python3 bench/worker.py --workload W --seed N --mode setup
        import, build the inputs, print "ready" and exit (set-up timing);
    python3 bench/worker.py --workload W --seed N --mode run --seconds S [--trace-out F]
        run rounds for about S seconds and print one JSON object: per-round
        times, per-operation times and results, and the peak RSS.  With
        --trace-out the first round runs untraced, later rounds traced, and
        the spans of the traced rounds are written to F.

Only `semicap`, numpy and the standard library are imported here; the
oracles and scipy stay in the parent (`run.py`), out of every timed figure.
Functions are looked up on their modules at call time, so the tracer's
wrappers see the calls this file makes.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

T_START = time.perf_counter()

import numpy as np  # noqa: E402

import semicap  # noqa: E402
from semicap import capacity, indentropy, lattice_core, scs_model, validation  # noqa: E402

import calib  # noqa: E402
import specs  # noqa: E402


def build_system(spec: dict):
    kind = spec["kind"]
    if kind == "rll":
        return scs_model.rll_constraint(spec["k"], float(spec["p"]))
    if kind == "linear":
        alphabet = lattice_core.Alphabet.binary()
        rows = tuple(
            scs_model.LinearConstraint(np.array([float(c) for c in coeffs]), float(bound))
            for coeffs, bound in spec["rows"])
        return scs_model.ConstraintSet(alphabet, lattice_core.Shape.segment(spec["window"]), rows)
    if kind == "axial":
        return scs_model.axial_product(build_system(spec["factor"]), spec["dim"], spec["mode"])
    raise ValueError(f"unknown system kind {kind!r}")


def build_measure(spec: dict):
    rows = np.array([[1.0 - p, p] for p in spec["ones"]])
    return indentropy.PeriodicProductMeasure(lattice_core.Alphabet.binary(), spec["period"], rows)


def prepare(op: dict):
    """Turn one op spec into a zero-argument call into the public API."""
    kind = op["op"]
    if kind == "count_admissible":
        system, n, eps = build_system(op["system"]), op["n"], float(op["eps"])
        return lambda: scs_model.count_admissible(n, system, eps, threads=1)
    if kind == "count_admissible_noncyclic":
        system, n = build_system(op["system"]), op["n"]
        return lambda: scs_model.count_admissible_noncyclic(n, system, threads=1)
    if kind == "capacity_1d":
        system = build_system(op["system"])
        return lambda: capacity.capacity_1d(system)
    if kind == "transfer_matrix_capacity":
        forbidden = [tuple(w) for w in op["forbidden"]]
        return lambda: capacity.transfer_matrix_capacity(forbidden)
    if kind == "tv_distance_to_set":
        gamma = build_system(op["system"])
        mu = lattice_core.PatternDistribution.from_floats(gamma.alphabet, gamma.shape, op["probs"])
        return lambda: scs_model.tv_distance_to_set(mu, gamma)
    if kind == "hind_fixed_n":
        system, n, eps = build_system(op["system"]), op["n"], float(op["eps"])
        kwargs = {"restarts": op["restarts"]} if "restarts" in op else {}
        return lambda: indentropy.hind_fixed_n(system, n, eps, **kwargs)
    if kind == "hind_com_fixed_n":
        system, n = build_system(op["system"]), op["n"]
        return lambda: indentropy.hind_com_fixed_n(system, n)
    if kind == "curve_optimum_01p":
        p = op["p"]
        return lambda: indentropy.curve_optimum_01p(p)
    if kind == "axial_lift":
        ones = op["ones"]
        mu = lattice_core.SiteProductMeasure(
            lattice_core.Alphabet.binary(), 1, len(ones), np.array([[1.0 - p, p] for p in ones]))
        dim = op["dim"]
        return lambda: indentropy.axial_lift(mu, dim)
    if kind == "concentration_check":
        mu, gamma = build_measure(op["measure"]), build_system(op["system"])
        eps = [float(e) for e in op["eps"]]
        sides, trials, seed = op["sides"], op["trials"], op["seed"]
        return lambda: validation.concentration_check(mu, gamma, eps, sides, trials, seed)
    if kind == "sample_word":
        mu, seed, side = build_measure(op["measure"]), op["seed"], op["side"]
        return lambda: validation.sample_word(mu, seed, side)
    raise ValueError(f"unknown op {kind!r}")


def _floats(a) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def to_plain(op: dict, r):
    """JSON-ready form of a result, made after the round's clock stops."""
    kind = op["op"]
    if kind.startswith("count"):
        return int(r)
    if kind == "capacity_1d":
        return {"value": r.value, "iterations": r.iterations, "gap": r.duality_gap,
                "converged": bool(r.converged), "probs": _floats(r.optimizer.probs)}
    if kind in ("transfer_matrix_capacity", "tv_distance_to_set"):
        return float(r)
    if kind == "hind_fixed_n":
        return {"value": r.value, "feasible": bool(r.feasible), "distance": r.distance,
                "restarts": r.restarts, "side": r.side,
                "rows": None if r.measure is None else _floats(r.measure.site_dists)}
    if kind == "hind_com_fixed_n":
        return {"value": r.value, "fillings": int(r.fillings),
                "cells": None if r.witness is None else r.witness.cells.reshape(-1).tolist()}
    if kind == "curve_optimum_01p":
        return {"p": r.p, "value": r.value, "x": r.x, "y": r.y}
    if kind == "axial_lift":
        return {"dim": r.dim, "side": r.side, "rows": _floats(r.site_dists)}
    if kind == "concentration_check":
        return {"fractions": _floats(r.fractions), "base_distance": r.base_distance,
                "base_feasible": bool(r.base_feasible),
                "monotone": [bool(m) for m in r.monotone_in_side]}
    if kind == "sample_word":
        return "".join(map(str, r.cells.reshape(-1).tolist()))
    raise ValueError(f"unknown op {kind!r}")


def peak_rss_kib() -> float:
    """This process's peak resident set.  VmHWM starts afresh at exec;
    ru_maxrss can carry over the high-water mark of the parent that forked."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_round(calls):
    """Run every operation once, with one reference task (`calib`) before
    each operation and one after the last, so that the tasks sample the
    machine's speed throughout the round.

    Returns (seconds per operation, seconds per reference task, raw results)."""
    results, times, refs = [], [], []
    for call in calls:
        refs.append(calib.reference())
        t = time.perf_counter()
        try:
            r = call()
        except Exception as exc:  # a failing call is a failed operation, not a crash
            r = exc
        times.append(time.perf_counter() - t)
        results.append(r)
    refs.append(calib.reference())
    return times, refs, results


def plain_results(ops, results) -> list:
    out = []
    for op, r in zip(ops, results):
        if isinstance(r, Exception):
            out.append({"error": f"{type(r).__name__}: {r}"})
        else:
            out.append(to_plain(op, r))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    ops = specs.build(args.workload, args.seed)
    calls = [prepare(op) for op in ops]
    setup_s = time.perf_counter() - T_START
    if args.mode == "setup":
        print("ready", semicap.__file__, flush=True)
        return 0

    tracer = None
    rounds = []
    need = 2 if args.trace_out is not None else 1   # a traced run needs both kinds
    start = time.perf_counter()
    while True:
        traced = args.trace_out is not None and len(rounds) % 2 == 1
        if traced and tracer is None:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        if traced:
            tracer.begin_round()
            times, refs, results = run_round(tracer.wrap_ops(ops, calls))
            tracer.end_round()
        else:
            times, refs, results = run_round(calls)
        rounds.append({"traced": traced, "wall_s": sum(times) + sum(refs), "op_s": times,
                       "ref_s": refs, "results": results})
        elapsed = time.perf_counter() - start
        longest = max(r["wall_s"] for r in rounds)
        if len(rounds) >= need and elapsed + longest > args.seconds:
            break
    peak_rss_mb = peak_rss_kib() / 1024.0

    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "semicap": semicap.__file__,
           "rounds": []}
    for rnd in rounds:
        plain = plain_results(ops, rnd["results"])
        out["rounds"].append({"traced": rnd["traced"], "op_s": rnd["op_s"],
                              "ref_s": rnd["ref_s"], "results": plain})
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.round_metrics()
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed})
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
