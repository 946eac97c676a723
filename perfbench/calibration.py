"""Machine-speed probe: timings in seconds at a fixed reference speed.

On a shared host the same Python code runs up to twice as fast in one minute
as in the next (other tenants' load on the cores behind the virtual CPUs), so
raw task times spread far beyond any useful bound.  A probe, a fixed piece of
pure-Python work that shares no code with zpcount, is timed right before
every task.  A speed factor is REFERENCE_S over a median of probe times (of
one pass, or of a whole run: run.pass_factors says which), and a time
multiplied by it is the time the task would take at the speed at which the
probe takes REFERENCE_S.  A change to zpcount moves task times and not the
probe, so it moves the scaled times by the same share as the raw ones.

The probe mixes what zpcount's own time is made of: interpreted loops over
small-int lists, big-int multiplication and dict updates.
"""

from __future__ import annotations

import statistics
import time

# About the probe's time in a fast spell of the reference machine (2 vCPU Intel
# Xeon VM, Python 3.11.7); a constant, so scaled times are comparable across
# runs.
REFERENCE_S = 0.0013

_BIG = 3 ** 20000


def _work() -> int:
    u = list(range(1, 24))
    v = list(range(3, 26))
    p = len(u)
    out = [0] * p
    for _ in range(10):
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                k = i + j
                if k >= p:
                    k -= p
                out[k] += a * b
    big = _BIG * (_BIG + 1)
    d: dict[int, int] = {}
    for i in range(4000):
        key = i * 7 % 1009
        d[key] = d.get(key, 0) + i
    return sum(out) + big.bit_length() + len(d)


def probe() -> float:
    """Seconds for one run of the probe."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def speed_factor(probes: list[float]) -> float:
    """Multiply a time measured alongside these probes by this to scale it."""
    return REFERENCE_S / statistics.median(probes)
