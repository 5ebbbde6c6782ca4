"""semicap benchmark: one workload, checked against independent oracles.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
Every figure comes from a worker process (`worker.py`) that imports only
`semicap` and numpy and runs whole rounds of the workload's operations
with `threads=1`; BLAS/OpenMP threads are pinned to 1.  This process then
checks every operation of every round against the oracles (`oracles.py`,
numpy/scipy, no `semicap`) and prints, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`:

* --trace 0: `wall_s`, the median over rounds of the round's time in its
  operations, and `setup_s`, the median over 16 fresh processes of the time
  from spawn to "semicap imported and inputs built", both put on the speed
  scale of `calib.py` by a reference task timed next to them; and
  `peak_rss_mb`, the worker's peak resident memory;
* --trace 1: the per-layer metrics of `spans.py`, from traced rounds that
  alternate with untraced ones, plus `trace.overhead_pct`; the spans are
  written to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calib
import specs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SPAWNS = 8      # measured set-ups before and again after the timed rounds
DEADLINE_S = 170.0    # the whole run, worker included, must end before this

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "scs_model.count.self_s": "s",
    "scs_model.count.words_per_s": "words/s",
    "scs_model.tv_distance.self_s": "s",
    "scs_model.tv_distance.calls": "count",
    "scs_model.find_word.self_s": "s",
    "linprog.solve_lp.self_s": "s",
    "linprog.distance_calls": "count",
    "linprog.oracle_calls": "count",
    "linprog.repeated_input_pct": "%",
    "capacity.capacity_1d.self_s": "s",
    "capacity.fw_iterations": "count",
    "capacity.transfer_matrix.self_s": "s",
    "indentropy.hind_fixed_n.self_s": "s",
    "indentropy.hind_starts": "count",
    "indentropy.hind_com.self_s": "s",
    "indentropy.tile.self_s": "s",
    "indentropy.tile.calls": "count",
    "lattice_core.empirical.self_s": "s",
    "lattice_core.averaged_marginal.self_s": "s",
    "validation.sample_word.self_s": "s",
    "validation.sample_word.cells_per_s": "cells/s",
    "validation.concentration.self_s": "s",
    "trace.overhead_pct": "%",
}
COUNTS = ("scs_model.tv_distance.calls", "linprog.distance_calls", "linprog.oracle_calls",
          "indentropy.tile.calls", "capacity.fw_iterations", "indentropy.hind_starts",
          "linprog.repeated_input_pct")


def fail(code: int, message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "SEMICAP_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(args, mode: str, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode, *extra]


def own_semicap(path: str) -> bool:
    return os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep)


def time_setup(args, env, warm_up: bool) -> list[tuple[float, float]]:
    """Per spawn: (seconds from spawning a fresh worker to its "ready" line,
    mean time of the reference task run just before and just after)."""
    times = []
    for i in range(SETUP_SPAWNS + warm_up):
        ref = calib.reference() + calib.reference()
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_cmd(args, "setup"), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
        ref = (ref + calib.reference() + calib.reference()) / 4
        if proc.returncode != 0 or not line.startswith("ready "):
            fail(4, f"set-up worker failed:\n{err}")
        if not own_semicap(line.split(" ", 1)[1].strip()):
            fail(4, f"semicap imported from outside {SRC}: {line.strip()}")
        if i or not warm_up:  # a warm-up spawn fills the byte-code cache
            times.append((elapsed, ref))
    return times


def run_worker(args, env, deadline: float) -> dict:
    extra = ["--seconds", str(args.seconds)]
    if args.trace:
        extra += ["--trace-out", os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(worker_cmd(args, "run", *extra), capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        fail(4, "worker did not finish in time")
    if proc.returncode != 0:
        fail(4, f"worker failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not own_semicap(out["semicap"]):
        fail(4, f"semicap imported from outside {SRC}")
    return out


def scaled(seconds: float, ref: float) -> float:
    """A time measured next to a reference task of duration `ref`, put on
    the scale where that task takes calib.REF_S."""
    return seconds * calib.REF_S / ref


def round_s(rnd: dict) -> float:
    """A round's time in its operations, scaled by the mean time of the
    reference tasks run between them."""
    return scaled(sum(rnd["op_s"]), statistics.mean(rnd["ref_s"]))


def layer_metrics(out: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced rounds, and any count that moved."""
    rounds = out["rounds"]
    layers = out["layers"]
    traced = [round_s(r) for r in rounds if r["traced"]]
    plain = [round_s(r) for r in rounds if not r["traced"]]
    metrics, moved = {}, []
    for name in PER_LAYER:
        if name == "trace.overhead_pct":
            value = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        elif name in COUNTS:
            values = [m[name] for m in layers]
            if len(set(values)) > 1:
                moved.append(f"{name}: {values}")
            value = values[0]
        else:
            value = statistics.median(m[name] for m in layers)
        metrics[name] = {"value": value, "unit": PER_LAYER[name]}
    return metrics, moved


def main() -> int:
    t_start = time.perf_counter()

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "semicap", "__init__.py")):
        fail(2, f"no semicap sources under {SRC}; run from the root of a source checkout")
    env = worker_env()
    setup = [] if args.trace else time_setup(args, env, warm_up=True)
    out = run_worker(args, env, t_start + DEADLINE_S)
    if not args.trace:
        setup += time_setup(args, env, warm_up=False)
    os.makedirs(OUT, exist_ok=True)
    raw = os.path.join(OUT, f"raw-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(raw, "w") as fh:
        json.dump({**out, "setup_spawns_s": setup}, fh)

    # the oracles (and scipy) load only after the timed processes have ended
    import checks
    import oracles

    bad = oracles.self_check()
    if bad:
        fail(3, "oracle self-check failed: " + ", ".join(bad))

    ops = specs.build(args.workload, args.seed)
    checker = checks.Checker()
    attempted = failed = 0
    correct = True
    for k, rnd in enumerate(out["rounds"]):
        for op, result in zip(ops, rnd["results"]):
            ok, detail = checker.check(op, result)
            attempted += 1
            if not ok:
                failed += 1
                correct &= "fault" in op
                if k == 0:
                    label = "known fault" if "fault" in op else "WRONG"
                    print(f"{label}: op {op['id']} {op['op']} "
                          f"{json.dumps({x: op[x] for x in op if x not in ('id', 'fault')})}"
                          f": {detail}")

    plain = [r for r in out["rounds"] if not r["traced"]]
    raw = ", ".join(f"{sum(r['op_s']):.3f}" for r in plain)
    walls = [round_s(r) for r in plain]
    print(f"{args.workload} seed={args.seed}: {len(out['rounds'])} rounds of {len(ops)} ops; "
          f"untraced rounds, raw s: {raw}; "
          f"reference-scaled s: {', '.join(f'{w:.3f}' for w in walls)}")
    op_s = [statistics.median(r["op_s"][i] for r in out["rounds"] if not r["traced"])
            for i in range(len(ops))]
    for i in sorted(range(len(ops)), key=lambda i: -op_s[i])[:5]:
        print(f"  op {ops[i]['id']:2d} {ops[i]['op']:28s} {op_s[i]:.3f} s")

    if args.trace:
        metrics, moved = layer_metrics(out)
        if moved:
            correct = False
            print("trace counts differ between rounds: " + "; ".join(moved))
        first_traced = next(sum(r["op_s"]) for r in out["rounds"] if r["traced"])
        shares = out["layers"][0]["_self_by_layer"]
        print("self time share of the first traced round: " + ", ".join(
            f"{k} {100 * v / first_traced:.1f}%" for k, v in sorted(shares.items(), key=lambda t: -t[1])))
        lp = out["layers"][0]
        print(f"LP calls {lp['linprog.calls']}, distinct inputs {lp['linprog.distinct_inputs']}")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(scaled(t, ref) for t, ref in setup),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        print(f"setup, raw s: {', '.join(f'{t:.4f}' for t, _ in setup)}")
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
