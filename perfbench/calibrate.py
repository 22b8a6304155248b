"""Host-speed probe for the timed run.

The shared host this benchmark runs on changes speed by up to 2x, switching
every few seconds and at times staying slow for a minute or more, longer
than a run; no statistic over raw wall-clock times can tell a slower program
from a slower host then.  So the timed run measures the host next to every
trial and set-up: `probe` times a short fixed loop that allocates small
objects, sets and tuples, the kind of work that dominates ksim's trials.
Each time is divided by the probe taken just before it and multiplied by
`REFERENCE_S`, so it reads as the time on a host where the probe takes
`REFERENCE_S` (about the fast speed of the 2-vCPU host this was built on).

The loop uses the standard library only, so no change to ksim moves it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.6e-3
_LOOP_N = 1000


class _Node:
    __slots__ = ("key", "items")

    def __init__(self, key, items):
        self.key = key
        self.items = items


def _loop() -> int:
    out = []
    for i in range(_LOOP_N):
        out.append((_Node(i, [i]), frozenset((i, i + 1))))
    return len(out)


def probe() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
