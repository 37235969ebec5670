"""Order statistics and interval arithmetic for the benchmark (stdlib only,
so the replay process can load it before the timed import of ``madlo``)."""
from __future__ import annotations

import math

# a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p % of the
    samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest-rank sample, out of n, has at
    least TAIL_BEYOND samples beyond it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n} samples cannot give a tail with {TAIL_BEYOND} beyond it")


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it that its children cover,
    counting overlapping children once."""
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length([(s, e) for s, e in clipped if e > s])
