"""Up-down staircase over the replay grid, for ``max_rate_lps``.

A step is one open-loop replay at grid point ``k``; it is *met* or missed
(``settings.KEEP_PACE_SHARE``, ``settings.EMIT_P99_LIMIT_MS``).  The first
step sits a little below the run's closed-loop capacity, since an open
loop idles through the trace's lulls.  Each later step moves one way:
up after a met step, down after a missed one, two grid points at a time
until the outcome first changes and one after that.  The steps then settle
around the highest rate the program sustains, met about half the time.
The estimate is the median rate the steps delivered from that first
change on (the step before it included): a met step delivers its rate,
a missed one what the program drained.
"""

from __future__ import annotations

import math
from statistics import median
from typing import List, Optional

from settings import GRID_BASE_LPS, GRID_STEPS_PER_OCTAVE, GRID_TOP

#: Share of the closed-loop capacity the first step starts at.
START_SHARE = 0.85


def _clamp(k: int) -> int:
    return min(GRID_TOP, max(0, k))


def _first_change(steps: List[dict]) -> Optional[int]:
    for index in range(1, len(steps)):
        if steps[index]["met"] != steps[index - 1]["met"]:
            return index
    return None


def next_grid(steps: List[dict], capacity_lps: float) -> int:
    """Grid point of the next step, given the steps so far (in order)."""
    if not steps:
        share = START_SHARE * capacity_lps / GRID_BASE_LPS
        return _clamp(math.floor(GRID_STEPS_PER_OCTAVE * math.log2(share)))
    size = 2 if _first_change(steps) is None else 1
    last = steps[-1]
    return _clamp(last["grid"] + (size if last["met"] else -size))


def estimate(steps: List[dict]) -> Optional[float]:
    """Highest sustained rate the steps show; ``None`` when none was met."""
    change = _first_change(steps)
    if change is None:
        met = [step["delivered_lps"] for step in steps if step["met"]]
        return max(met) if met else None
    return median(step["delivered_lps"] for step in steps[change - 1 :])
