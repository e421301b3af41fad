"""Order statistics shared by the runner, the comparison and the tests."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

# The highest percentile reported is one with at least ten samples beyond it.
P90_MIN_SAMPLES = 100


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def p90(values: Sequence[float]) -> Optional[float]:
    """The 90th percentile, or None with fewer than 100 samples."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[-1]
