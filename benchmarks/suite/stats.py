"""Order statistics the suite publishes.

Percentiles are nearest-rank over the raw per-request latencies, and a
percentile is published only when at least :data:`MIN_BEYOND` samples lie
above its rank: with fewer, "p99" is just a name for one of the last few
samples (at 96 requests it is the maximum).
"""

import statistics

#: Samples that must lie above a percentile's rank for it to be published.
MIN_BEYOND = 10


def percentile(result, p):
    """``result.percentile_cycles(p)`` of a ``LoadResult`` (``p`` an
    integer percent), or None when fewer than :data:`MIN_BEYOND` of its
    latencies lie above the nearest rank."""
    n = len(result.latencies_cycles)
    rank = max(1, -(-n * p // 100))  # ceil(n * p / 100)
    if n - rank < MIN_BEYOND:
        return None
    return result.percentile_cycles(p)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values):
    """A wall-clock metric over K samples: the median as its value, plus
    every sample, the quartiles and their spread as a share of the
    median."""
    q1, median, q3 = quartiles(values)
    return {
        "value": median,
        "samples": list(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }
