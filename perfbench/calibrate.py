"""Machine-speed calibration for the end-to-end times.

The shared 2-core machine this benchmark was built on runs the same code
at two speeds that alternate every few seconds to tens of minutes: a
fixed pure-Python loop takes 55 or 80-90 ms, a scan up to 1.9x longer
(README.md, "Steadiness").  Raw medians of one run therefore move by up
to 1.6x between runs.  A timed unit is bracketed by a short pure-Python
reference kernel, and its time is divided by the kernel's slowdown
against its quiet-machine time, so the reported times are seconds at
the quiet speed.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_S = 0.0052  # quiet-machine time of the kernel (2-core x86-64, fast regime)


def _kernel():
    s = 0
    for k in range(75_000):
        s += k * k
    return s


def slowdown() -> float:
    """Median of three kernel times over the quiet-machine time."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S


def timed(fn, *args, calibrated: bool = True):
    """(fn(*args), record): the raw seconds, and seconds at the quiet speed.

    With ``calibrated`` false the two are the same.
    """
    before = slowdown() if calibrated else 1.0
    t0 = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - t0
    after = slowdown() if calibrated else 1.0
    return result, {"raw_s": raw, "s": raw / math.sqrt(before * after),
                    "slowdown": [before, after]}
