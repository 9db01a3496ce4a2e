"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile that still has `beyond` samples above it.

    Returns (percentile, value): with n samples sorted ascending, the value is
    the one of rank n - beyond, so exactly `beyond` samples rank above it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    rank = n - beyond
    return 100.0 * rank / n, xs[rank - 1]


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


median = statistics.median
