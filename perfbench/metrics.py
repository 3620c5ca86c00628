"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that has at least
    TAIL_BEYOND samples above it: the (n - TAIL_BEYOND)-th smallest of n.
    With too few samples for that, the maximum, as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    k = n - TAIL_BEYOND
    return 100.0 * k / n, ordered[k - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
