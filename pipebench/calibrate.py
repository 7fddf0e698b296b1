"""A fixed piece of pure-Python work that measures how fast the machine is
running right now.

The shared 2-core sandbox this benchmark was built on changes speed by up
to 1.6x over minutes, and CPU time slows with wall time, so raw seconds
differ between runs of the same code by far more than any bound worth
setting.  Timing this fixed work next to each solve and scaling the
solve's time by ``REFERENCE_S / calibration time`` gives "reference
seconds": the time the solve would take on a machine where the
calibration takes ``REFERENCE_S``.  Measured on one seed over six runs,
this cut the spread of the pass time between runs from 0.18 to 0.03.

The work mixes what the pipeline does: small-integer row elimination (as
in the Smith normal form), and sorting, hashing and slicing many tuples
(as in enumeration and chain building).  It is part of the benchmark and
must not change between the commits being compared.
"""

from __future__ import annotations

import random
import time
from typing import Tuple

#: nominal seconds of one calibration; the unit of reference seconds
REFERENCE_S = 0.1


def _work() -> int:
    rng = random.Random(1)
    n = 48
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for t in range(n):
        p = a[t][t] or 1
        for i in range(t + 1, n):
            f = a[i][t] // p
            if f:
                ai, at = a[i], a[t]
                for j in range(n):
                    ai[j] -= f * at[j]
    items = [(rng.random(), tuple(rng.randrange(12) for _ in range(4)))
             for _ in range(12000)]
    items.sort()
    index = {t: i for i, (_, t) in enumerate(items)}
    hits = 0
    for _, t in items:
        for i in range(4):
            if t[:i] + t[i + 1:] + (0,) in index:
                hits += 1
    return hits + sum(map(sum, a))


def calibrate() -> Tuple[float, float]:
    """Wall and CPU seconds of one run of the fixed work."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    _work()
    return time.perf_counter() - t0, time.process_time() - c0
