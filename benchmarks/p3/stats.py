"""Order statistics for the P3 benchmark."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: percentiles a tail may be reported at, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)

#: samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it among *n*, or None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:  # 100 - 99.9 != 0.1
            best = p
    return best


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` at :func:`tail_percentile`, or None."""
    p = tail_percentile(len(values))
    return None if p is None else (p, percentile(values, p))
