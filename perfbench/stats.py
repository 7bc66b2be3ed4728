"""Statistics used by the serving benchmark (run.py).

Pure functions over plain numbers and (start, end) intervals, so that
test_stats.py can check them without running the benchmark.
"""

import bisect
import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def rank_of(n, q):
    """1-based nearest rank of the q-quantile among n sorted samples."""
    return max(1, math.ceil(q * n - 1e-9))


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[rank_of(len(ordered), q) - 1]


def beyond(n, q):
    """How many of n samples lie strictly beyond the q-quantile's rank."""
    return n - rank_of(n, q)


def checked_percentile(values, q, min_tail=MIN_TAIL):
    """percentile(), refusing a sample too small to leave `min_tail` beyond."""
    if beyond(len(values), q) < min_tail:
        raise ValueError(
            f"{len(values)} samples leave {beyond(len(values), q)} beyond "
            f"the {q:g} quantile; at least {min_tail} are needed")
    return percentile(values, q)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def clip(interval, window):
    """The part of `interval` inside `window`, or None when they are apart."""
    start, end = max(interval[0], window[0]), min(interval[1], window[1])
    return (start, end) if end > start else None


def union_length(intervals, window=None):
    """Total length covered by the union of intervals, optionally clipped."""
    if window is not None:
        intervals = [c for c in (clip(i, window) for i in intervals) if c]
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """A span's duration minus the part of it that its children cover."""
    return (span[1] - span[0]) - union_length(children, window=span)


def attribute(parents, children):
    """For each parent interval, the child intervals overlapping it.

    Children must be disjoint, as engine calls from the service's single
    dispatcher are. A child belongs to every parent it overlaps: a batch's
    engine call lies inside the dispatch interval of each request in it.
    """
    children = sorted(children)
    starts = [c[0] for c in children]
    ends = [c[1] for c in children]
    return [children[bisect.bisect_right(ends, start):
                     bisect.bisect_left(starts, end)]
            for start, end in parents]


CACHE_FIELDS = ("hits", "misses", "inserts", "evictions", "invalidations",
                "rejections", "resident_bytes")


def cache_delta(before, after):
    """Counter deltas between two cache snapshots (dicts of CACHE_FIELDS).

    resident_bytes is a level, not a counter: the later value is kept.
    """
    delta = {k: after[k] - before[k] for k in CACHE_FIELDS
             if k != "resident_bytes"}
    delta["resident_bytes"] = after["resident_bytes"]
    lookups = delta["hits"] + delta["misses"]
    delta["hit_rate"] = delta["hits"] / lookups if lookups else 0.0
    return delta
