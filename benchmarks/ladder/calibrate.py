"""A fixed calibration kernel: how fast is this machine *right now*?

The sandbox the ladder runs in is a small VM on a shared host whose
effective speed moves by tens of percent, in bursts of a fraction of a
second on top of a level that drifts over minutes, and CPU time is
inflated exactly as wall time is (the interference is cache and core
sharing, not descheduling, so no counter the guest can read shows it).
A few seconds of rewriting cannot average that out; a yardstick measured
next to it can divide it out.

:func:`slice_s` runs one fixed piece of work — numpy sort/gather over a
few MB plus a pure-Python dict loop, the two kinds of work the rewriter
does — and returns its wall time.  ``run.py`` runs some slices before
the first child and after every child, turns the slices of one
invocation into one speed factor (``REFERENCE_S`` divided by their lower
quartile) and scales that invocation's timings by it.  The slices run in
the driver process, never in a child: the measured process stays exactly
what ``repro rewrite`` would be (same allocator state, same peak RSS).

The kernel touches nothing in ``src/``: a change to the program cannot
move it, so parent and change are corrected by the same yardstick.
Changing the kernel or ``REFERENCE_S`` redefines every timing metric and
is a benchmark change, not a tuning knob.
"""

from __future__ import annotations

import time

import numpy as np

# The lower-quartile slice on the box the benchmark was written on, at
# that box's usual level (it was seen between 0.023 and 0.040 within one
# hour).  Corrected timings therefore read as "seconds on that box on a
# usual day"; on another machine they read in the same unit.
REFERENCE_S = 0.0270

SLICES_PER_GAP = 6  # before the first child and after every child

_ARRAY = np.arange(400_000, dtype=np.int64)


def slice_s() -> float:
    """Wall seconds of one calibration slice (about 30 ms)."""
    start = time.perf_counter()
    a = (_ARRAY * 1103515245 + 12345) % 400_009
    order = np.argsort(a, kind="stable")
    a = a[order] ^ (order & 0xFF)
    table: dict = {}
    acc = int(a[0])
    for i in range(20_000):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + i
        acc += key ^ (acc >> 3)
    sorted(table.items(), key=lambda item: item[1])
    return time.perf_counter() - start


def slices(count: int = SLICES_PER_GAP) -> list:
    return [slice_s() for _ in range(count)]
