"""Host-speed calibration: a fixed pure-Python reference slice, timed
between the timed items.

The benchmark shares a few cores of a host with other tenants.  The speed
of those cores moves by up to half for seconds to minutes at a time,
beyond anything a longer run can average away: a spin loop's best slice
went from 5.5 ms to 8.3 ms within ten seconds and stayed there, with no
steal time and with process CPU time tracking wall time.  So every timed
item is bracketed by reference probes, and its wall time is divided by
the local reference time: the result reads in nominal seconds, the time
the item would take on a host where one reference slice takes
NOMINAL_SLICE_S.  The slice is the benchmark's own code, so no change to
`premodular` can change it.

The correction follows the shifts that last longer than an item and the
probes around it; it cannot follow a shift inside one long item.  Work
that is bound by memory bandwidth (the large einsum of the rank-64
premodular items) need not slow in the same proportion as the slice.
"""

from __future__ import annotations

import time

NOMINAL_SLICE_S = 0.001  # one slice on this 2-core box when it runs fast
_SLICE_ITERS = 6500
_SLICES = 3  # a probe is the fastest of these, so a burst inside it does not count


def reference_slice() -> int:
    acc, table = 0, {}
    for i in range(_SLICE_ITERS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = table.get(i & 255, 0) + acc
    return acc


def probe() -> float:
    """Seconds of one reference slice now: the fastest of a few."""
    best = float("inf")
    for _ in range(_SLICES):
        t = time.perf_counter()
        reference_slice()
        best = min(best, time.perf_counter() - t)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """Wall seconds measured between two probes, in nominal seconds."""
    return seconds * NOMINAL_SLICE_S / ((before + after) / 2)
