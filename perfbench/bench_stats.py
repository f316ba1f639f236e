"""Order statistics the benchmark reports: the median and the tail."""

from __future__ import annotations

import bisect
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail(samples, beyond: int = 10) -> tuple:
    """The highest percentile of ``samples`` with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: ``value`` is a sample, ``percentile``
    the share of samples at or below it (in percent), and ``n`` the sample
    count.  Ties count as "at or below", so exactly-equal samples never
    inflate the number beyond the reported value.  Fewer than
    ``beyond + 1`` samples have no such percentile and raise ``ValueError``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples: no percentile has {beyond} beyond it")
    k = n - beyond - 1
    while k >= 0 and n - bisect.bisect_right(ordered, ordered[k]) < beyond:
        k -= 1
    if k < 0:
        raise ValueError(f"ties leave no sample with {beyond} beyond it")
    at_or_below = bisect.bisect_right(ordered, ordered[k])
    return ordered[k], 100.0 * at_or_below / n, n
