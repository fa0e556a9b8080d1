"""Summary statistics for latency samples: the median and the tail percentile."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Tail percentiles tried from the highest down; the first one with at least
#: :data:`MIN_BEYOND` samples above it is the reported tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(percentile: float, count: int) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(percentile / 100.0 * count, 6)))


def nearest_rank(samples: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile: the smallest sample with ``p%`` at or below it."""
    ordered = sorted(samples)
    return ordered[_rank(percentile, len(ordered)) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile that leaves ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples above
    it; the tail then falls back to the median.
    """
    for percentile in TAIL_LADDER:
        if count - _rank(percentile, count) >= MIN_BEYOND:
            return percentile
    return None


def summarize(samples: Sequence[float]) -> dict:
    """``{"n", "p50", "tail", "tail_pct"}`` for one timing's samples.

    ``tail_pct`` is the percentile the tail was read at, or ``None`` when the
    run held too few samples and ``tail`` repeats the median.
    """
    if not samples:
        return {"n": 0, "p50": None, "tail": None, "tail_pct": None}
    median = statistics.median(samples)
    percentile = tail_percentile(len(samples))
    tail = median if percentile is None else nearest_rank(samples, percentile)
    return {"n": len(samples), "p50": median, "tail": tail, "tail_pct": percentile}
