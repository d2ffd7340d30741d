"""How fast the host runs right now: a fixed reference loop, timed.

A shared host changes speed from second to second and drifts over minutes,
and a call's wall time moves with it.  The benchmark times this loop right
before and right after every library call; the loop never changes, so its
time measures the host, not the library.  ``wall_ref_s`` divides a run's
call times by the host's slowness measured this way.

The loop mixes pure-Python set and integer work with small numpy sorts, as
the library does.
"""

from __future__ import annotations

import time

import numpy as np

# Time of ``reference()`` on the host the benchmark was tuned on (2 vCPU
# Intel Xeon) in its fast state.  A time at reference speed is a time on a
# host where ``reference()`` takes this long.
NOMINAL_S = 1.25e-3

_SORTED = np.arange(4096.0)


def _loop() -> float:
    t0 = time.perf_counter()
    seen = set()
    acc = 0
    for i in range(6000):
        seen.add((i * 7919) % 6007)
        acc += len(seen) & 3
    for _ in range(20):
        acc += float(np.sort(_SORTED[::-1])[0])
    return time.perf_counter() - t0


def reference() -> float:
    """Seconds the reference loop takes now: the faster of two runs."""
    return min(_loop(), _loop())


def at_reference_speed(calls) -> float:
    """Total call time at reference speed, from (seconds, ref_before, ref_after).

    Each call is weighted by its duration, so a long call's slowness counts
    for as long as the call lasted:
    total * NOMINAL_S / (sum of seconds * mean(ref_before, ref_after) / total).
    """
    total = sum(c[0] for c in calls)
    weighted = sum(c[0] * (c[1] + c[2]) / 2 for c in calls)
    return total * total * NOMINAL_S / weighted if weighted else 0.0
