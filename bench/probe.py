"""Host-speed probe: fixed pieces of work that never call the library.

On a shared host the same code runs at a speed that drifts by tens of percent
over seconds to minutes, and the process keeps all its CPU time while it does
(it is not descheduled; it gets less done per second).  No wall-time median
over a run of tens of seconds is free of that.  The probe is timed right
before and right after every job, so a job's wall time divided by the host's
slowdown around it cancels most of the drift.  The probe does not touch
`dyadic_cascade`, so a change to the library moves the corrected time exactly
as much as it moves the job.

The drift does not reach all kinds of work alike: it slows interpreted Python
and mpmath by up to 40% and numpy on large arrays by a few percent.  So each
workload names the parts that match the work it does (`Workload.probe`), and
a workload that no probe made steadier names none.
"""

from __future__ import annotations

import math
import time

import mpmath
import numpy as np

REPEATS = 3

_MP = mpmath.MPContext()  # own context: the library's mpmath precision is untouched
_MP.dps = 50
_A = np.random.default_rng(0).random(65_535)
_B = _A[::-1].copy()
_C = np.empty_like(_A)


def _interpreter() -> None:
    total, table = 0, {}
    for i in range(60_000):
        total += i * i % 7
        table[i & 1023] = total


def _mpmath() -> None:
    x, y = _MP.mpf(1) / 3, _MP.sqrt(2)
    for _ in range(1_500):
        x = (x * y + 1) / (y + x)


def _numpy() -> None:
    for _ in range(200):
        np.multiply(_A, _B, out=_C)
        np.add(_C, _A, out=_C)


#: name -> (work, its seconds on the reference host: a 2-core Xeon VM)
PARTS = {
    "interpreter": (_interpreter, 0.012),
    "mpmath": (_mpmath, 0.018),
    "numpy": (_numpy, 0.017),
}


def slowdown(parts) -> float:
    """Host slowdown against the reference host: the geometric mean over
    `parts` of each part's fastest of REPEATS tries over its reference time.
    1.0, without running anything, when `parts` is empty."""
    if not parts:
        return 1.0
    best = dict.fromkeys(parts, math.inf)
    clock = time.perf_counter_ns
    for _ in range(REPEATS):
        for name in parts:
            t0 = clock()
            PARTS[name][0]()
            best[name] = min(best[name], clock() - t0)
    logs = [math.log(best[n] * 1e-9 / PARTS[n][1]) for n in parts]
    return math.exp(sum(logs) / len(logs))


def scaled(walls: list, slowdowns: list) -> list:
    """Each job's wall time at reference speed; slowdowns[i] and
    slowdowns[i + 1] were probed right before and right after job i."""
    return [w / math.sqrt(slowdowns[i] * slowdowns[i + 1])
            for i, w in enumerate(walls)]
