"""Order statistics for timing samples."""

from __future__ import annotations

import bisect
import statistics
from typing import List, Optional, Sequence, Tuple

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10    # samples that must lie above a reported tail percentile
TAIL_MIN_N = 20     # below this many samples no tail is reported


def percentile(values: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    h = (len(xs) - 1) * p / 100
    lo = int(h)
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] + (h - lo) * (xs[lo + 1] - xs[lo])


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """(value, percentile, n) at the highest ladder percentile that has at
    least TAIL_BEYOND samples above it; None for fewer than TAIL_MIN_N."""
    n = len(values)
    if n < TAIL_MIN_N:
        return None
    xs = sorted(values)
    for p in TAIL_LADDER:
        value = percentile(xs, p)
        if n - bisect.bisect_right(xs, value) >= TAIL_BEYOND:
            return value, p, n
    return percentile(xs, 50), 50.0, n  # ties at the top: report the median


def relative_iqr(values: List[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0
