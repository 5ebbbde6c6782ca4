"""In-memory span tracer for the traced run, and the per-layer metrics.

`Tracer.install` replaces the public names the workloads call, and the
names the modules import from each other, with wrappers that record a span
(name, start, end, parent) while a traced round is open; outside a traced
round a wrapper only forwards the call.  The layer metrics are computed per
traced round from the spans:

* self time = a span's duration minus the durations of its direct
  children, and minus the tracer's own bookkeeping for those children;
* work counts (words counted, cells sampled, Frank-Wolfe iterations,
  product-measure starts) are read from the returned objects;
* `linprog.repeated_input_pct` hashes every LP's arrays after the LP
  returns (bookkeeping, excluded from self times) and counts the calls
  whose exact input was already solved earlier in the same round.
"""
from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from semicap import capacity, indentropy, scs_model, validation

COUNT = ("scs_model.count_admissible", "scs_model.count_admissible_noncyclic")
LP_DISTANCE = "linprog.solve_lp@scs_model"
LP_ORACLE = "linprog.solve_lp@capacity"
LP = (LP_DISTANCE, LP_ORACLE)
TV = ("scs_model.tv_distance_to_set",)


def _lp_key(args, kwargs) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in list(args) + [kwargs[k] for k in sorted(kwargs)]:
        if a is None:
            h.update(b"-")
            continue
        arr = np.asarray(a, dtype=np.float64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.digest()


# (module, attribute, span name, work extractor, key extractor)
TARGETS = [
    (scs_model, "count_admissible", COUNT[0], int, None),
    (scs_model, "count_admissible_noncyclic", COUNT[1], int, None),
    (scs_model, "tv_distance_to_set", TV[0], None, None),
    (scs_model, "solve_lp", LP_DISTANCE, None, _lp_key),
    (scs_model, "empirical_distribution", "lattice_core.empirical_distribution", None, None),
    (capacity, "capacity_1d", "capacity.capacity_1d", lambda r: r.iterations, None),
    (capacity, "transfer_matrix_capacity", "capacity.transfer_matrix_capacity", None, None),
    (capacity, "solve_lp", LP_ORACLE, None, _lp_key),
    (indentropy, "hind_fixed_n", "indentropy.hind_fixed_n", lambda r: r.restarts, None),
    (indentropy, "hind_com_fixed_n", "indentropy.hind_com_fixed_n", None, None),
    (indentropy, "curve_optimum_01p", "indentropy.curve_optimum_01p", None, None),
    (indentropy, "axial_lift", "indentropy.axial_lift", None, None),
    (indentropy, "find_admissible_word", "scs_model.find_admissible_word", None, None),
    (indentropy, "tv_distance_to_set", TV[0], None, None),
    (indentropy, "averaged_marginal", "lattice_core.averaged_marginal", None, None),
    (indentropy.PeriodicProductMeasure, "tile", "indentropy.tile", None, None),
    (validation, "sample_word", "validation.sample_word", lambda r: r.cells.size, None),
    (validation, "concentration_check", "validation.concentration_check", None, None),
    (validation, "tv_distance_to_set", TV[0], None, None),
    (validation, "empirical_distribution", "lattice_core.empirical_distribution", None, None),
    (validation, "averaged_marginal", "lattice_core.averaged_marginal", None, None),
]

# per-layer metric -> the span names it sums over
SELF_TIMES = {
    "scs_model.count.self_s": COUNT,
    "scs_model.tv_distance.self_s": TV,
    "scs_model.find_word.self_s": ("scs_model.find_admissible_word",),
    "linprog.solve_lp.self_s": LP,
    "capacity.capacity_1d.self_s": ("capacity.capacity_1d",),
    "capacity.transfer_matrix.self_s": ("capacity.transfer_matrix_capacity",),
    "indentropy.hind_fixed_n.self_s": ("indentropy.hind_fixed_n",),
    "indentropy.hind_com.self_s": ("indentropy.hind_com_fixed_n",),
    "indentropy.tile.self_s": ("indentropy.tile",),
    "lattice_core.empirical.self_s": ("lattice_core.empirical_distribution",),
    "lattice_core.averaged_marginal.self_s": ("lattice_core.averaged_marginal",),
    "validation.sample_word.self_s": ("validation.sample_word",),
    "validation.concentration.self_s": ("validation.concentration_check",),
}
CALLS = {
    "scs_model.tv_distance.calls": TV,
    "linprog.distance_calls": (LP_DISTANCE,),
    "linprog.oracle_calls": (LP_ORACLE,),
    "indentropy.tile.calls": ("indentropy.tile",),
}
WORK = {
    "capacity.fw_iterations": ("capacity.capacity_1d",),
    "indentropy.hind_starts": ("indentropy.hind_fixed_n",),
}
RATES = {  # work per second of the spans' whole duration
    "scs_model.count.words_per_s": COUNT,
    "validation.sample_word.cells_per_s": ("validation.sample_word",),
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []    # [name, start, end, parent, work, bookkeeping, key]
        self.stack: list[int] = []
        self.rounds: list[tuple[int, int]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def _wrapper(self, fn, name, work, key):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, None, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            rec[1], rec[2] = t0, t1
            if work is not None:
                rec[4] = work(result)
            if key is not None:
                rec[6] = key(args, kwargs)
            rec[5] = clock() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrapped: dict[tuple[int, str], object] = {}
        for owner, attr, name, work, key in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            w = wrapped.get((id(fn), name))
            if w is None:
                w = wrapped[(id(fn), name)] = self._wrapper(fn, name, work, key)
            setattr(owner, attr, w)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def wrap_ops(self, ops, calls):
        """Root spans, one per operation, named after the benchmark op."""
        return [self._wrapper(call, f"bench.{op['op']}", None, None)
                for op, call in zip(ops, calls)]

    def begin_round(self) -> None:
        self.rounds.append((len(self.spans), -1))
        self.active = True

    def end_round(self) -> None:
        self.active = False
        start, _ = self.rounds[-1]
        self.rounds[-1] = (start, len(self.spans))

    # -- metrics -------------------------------------------------------------

    def round_metrics(self) -> list[dict]:
        return [self._metrics(self.spans[a:b], a) for a, b in self.rounds]

    @staticmethod
    def _metrics(spans, base) -> dict:
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for s, d in zip(spans, dur):
            p = s[3] - base
            if p >= 0:
                child[p] += d + s[5]
        self_s: dict[str, float] = {}
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        work: dict[str, int] = {}
        for i, s in enumerate(spans):
            name = s[0]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            total[name] = total.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            if s[4] is not None:
                work[name] = work.get(name, 0) + int(s[4])
        out: dict[str, float] = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(self_s.get(nm, 0.0) for nm in names)
        for metric, names in CALLS.items():
            out[metric] = sum(calls.get(nm, 0) for nm in names)
        for metric, names in WORK.items():
            out[metric] = sum(work.get(nm, 0) for nm in names)
        for metric, names in RATES.items():
            secs = sum(total.get(nm, 0.0) for nm in names)
            out[metric] = sum(work.get(nm, 0) for nm in names) / secs if secs else 0.0
        keys = [s[6] for s in spans if s[0] in LP]
        out["linprog.repeated_input_pct"] = (
            100.0 * (len(keys) - len(set(keys))) / len(keys) if keys else 0.0)
        out["linprog.calls"] = len(keys)
        out["linprog.distinct_inputs"] = len(set(keys))
        # self time per module, for the layer shares printed by run.py
        out["_self_by_layer"] = {}
        for name, t in self_s.items():
            layer = name.split(".")[0]
            out["_self_by_layer"][layer] = out["_self_by_layer"].get(layer, 0.0) + t
        return out

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"],
                       "rounds": [[a, b] for a, b in self.rounds],
                       "spans": [s[:4] for s in self.spans]}, fh)
