"""A fixed reference task that puts run times on one speed scale.

Other tenants of the machine slow every process on it, often by 20-80 %
for seconds at a time, so raw round times of identical code spread by
15-35 % between runs.  Timing this task right next to each measured step
gives the speed of the machine at that moment.  A step time t is then
reported as t * REF_S / r, where r is the task's time measured next to it:
the step's time on a machine on which this task takes REF_S.

The task mixes what the program does: sorting and hashing Python objects,
JSON round trips, rational arithmetic and small numpy arrays.  A pure
integer loop tracked the program's slowdowns only half as well, because
co-tenant load slows code with a larger working set more.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import numpy as np

REF_S = 0.005   # nominal time of one reference() call; fixes the scale


def reference() -> float:
    """Run the reference task once; returns its duration in seconds."""
    t0 = time.perf_counter()
    rng = random.Random(1)
    items = sorted((rng.random(), i, str(i)) for i in range(1500))
    table = {s: (x, i) for x, i, s in items}
    json.loads(json.dumps(table))
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(1, i)
    for _ in range(30):
        a = np.vstack([np.zeros((8, 8)) + np.eye(8), np.eye(8)])
        a.sum(axis=0)
    return time.perf_counter() - t0
