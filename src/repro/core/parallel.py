"""Ordered thread map for independent work items.

The static chooser runs in one thread: its obligations and BMC state scans
are discharged serially against one checker and one verdict cache.  The
one in-process fan-out left is the explorer's lite-DPOR root split
(:mod:`repro.sched.explore`); analysis parallelism otherwise lives at the
job level (the service's job pool) and the fleet level (one process per
shard).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


def parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``, across ``workers`` threads.

    Results come back in input order whatever the completion order, so a
    caller that folds them gets the serial answer.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
