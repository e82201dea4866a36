"""Percentiles in the benchmark's reporting convention.

Timings are reported as a median plus a *tail*: the highest percentile of
:data:`TAIL_LADDER` that still has at least :data:`TAIL_MIN_BEYOND` samples
beyond it, so a tail is never just the maximum (p99 needs >= 1000 samples).
The ladder steps by nines, so a tail below p99 is a p90 with 10 to 99
samples beyond it rather than a p95 resting on barely ten.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The tail percentile *count* samples support (100.0 = the maximum)."""
    chosen = 100.0
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * count))
        if count - rank >= TAIL_MIN_BEYOND:
            chosen = q
    return chosen


def summarize(values: Iterable[float]) -> Tuple[float, float, float, int]:
    """``(p50, tail value, tail percentile, sample count)``; zeros when empty."""
    ordered: List[float] = sorted(values)
    if not ordered:
        return 0.0, 0.0, 0.0, 0
    q = tail_percentile(len(ordered))
    return percentile(ordered, 50.0), percentile(ordered, q), q, len(ordered)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
