"""Machine-speed calibration.

On a shared machine the speed of one core drifts by +-20% over seconds to
tens of seconds, more than any regression bound worth having.  Runs
therefore time a fixed pure-Python kernel of exact rational elimination (the
arithmetic robsat spends its time in) every INTERVAL_S, and run.py scales
each op's time to the speed at which that kernel takes REFERENCE_S:

    scaled time = measured time * REFERENCE_S / mean(kernel times within
                  WINDOW_S of the op)

Over 15 s windows the ratio of robsat op time to kernel time varied by 3%
where either alone varied by 12%.  The kernel runs in the worker between
ops, where it shares the core's speed with the ops it scales.  It uses nothing
from robsat and runs with the garbage collector off, so robsat's GC settings
cannot move it; what robsat's heap does to it was measured at a few percent
(see CHANGES.md).  A kernel in a separate process did not track the worker's
speed: scaled spreads were no better than raw ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import time
from fractions import Fraction

REFERENCE_S = 0.008  # about the kernel's time on a 2-core x86-64 VM, Python 3.11
INTERVAL_S = 0.25  # a run times the kernel at least this often
WINDOW_S = 2.5  # an op's scale uses the kernel samples this close to it

_RNG = random.Random(12345)
_ROWS = [[Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 9)) for _ in range(7)] for _ in range(7)]


def kernel_time() -> float:
    """Seconds taken by one pass of the fixed kernel, with the garbage
    collector off."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(6):
        m = [list(r) for r in _ROWS]
        for c in range(7):
            p = next(i for i in range(c, 7) if m[i][c] != 0)
            m[c], m[p] = m[p], m[c]
            inv = 1 / m[c][c]
            m[c] = [x * inv for x in m[c]]
            for i in range(7):
                if i != c and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def scale(samples: list[float]) -> float:
    """Factor taking times measured alongside these kernel samples to the
    reference speed."""
    return REFERENCE_S * len(samples) / sum(samples)


def scale_each(times: list[float], starts: list[float], samples: list[float],
               at: list[float]) -> list[float]:
    """Per-op factors from the kernel samples taken (at times `at`, sorted)
    within WINDOW_S of each op's middle, or from all samples where none was."""
    whole = scale(samples)
    out = []
    for t, start in zip(times, starts):
        mid = start + t / 2
        lo = bisect.bisect_left(at, mid - WINDOW_S)
        hi = bisect.bisect_right(at, mid + WINDOW_S)
        out.append(scale(samples[lo:hi]) if hi > lo else whole)
    return out

