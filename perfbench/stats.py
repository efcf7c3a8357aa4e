"""Summary statistics shared by the workloads and the report.

Latencies are summarised as a median plus a tail value. Each workload fixes
its tail percentile (p99, p95, ...) so that at least ``TAIL_MIN_BEYOND``
samples lie beyond it and its value is not set by a small group of rare
operations, such as verifies that meet cold caches; a run goes on past its
time until it has enough samples. The percentile is fixed rather than chosen
from each run's sample count, because when it moves between runs the tail
jumps between operation groups (in cli-suite, between the purify typedist
reports and the rest).
"""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def beyond_count(count: int, percentile: float) -> int:
    """Samples above the given percentile of ``count`` samples."""
    # round before flooring so that e.g. 1000 * 0.1 / 100 counts as 1, not 0
    return math.floor(round(count * (100.0 - percentile) / 100.0, 9))


def min_samples(percentile: float) -> int:
    """Fewest samples that leave TAIL_MIN_BEYOND beyond the percentile."""
    count = math.ceil(TAIL_MIN_BEYOND * 100.0 / (100.0 - percentile))
    while beyond_count(count, percentile) < TAIL_MIN_BEYOND:
        count += 1
    return count


def tail(values, percentile: float) -> tuple[float, int]:
    """(value, samples beyond) at the percentile.

    The value is the order statistic with exactly ``beyond`` samples above it
    in sorted order: ``sorted(values)[n - beyond - 1]``.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = beyond_count(n, percentile)
    if beyond < TAIL_MIN_BEYOND:
        raise ValueError(f"{n} samples leave {beyond} beyond p{percentile}; "
                         f"need {TAIL_MIN_BEYOND}")
    return ordered[n - beyond - 1], beyond


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
