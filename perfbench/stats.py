"""The benchmark's own arithmetic: percentiles and span aggregation."""

from __future__ import annotations

import math


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n
    distinct samples."""
    return n - math.ceil(p * n / 100)


def tail_percentile(samples, want=90, min_beyond=10):
    """(p, value): the highest whole percentile p <= want that has at
    least `min_beyond` samples beyond it, by nearest rank.  With too few
    samples for any such p, p is 0 and the value is the minimum."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    p = want
    while p > 0 and beyond(n, p) < min_beyond:
        p -= 1
    return p, xs[max(math.ceil(p * n / 100), 1) - 1]


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def aggregate(spans):
    """Per-name {"calls", "total_s", "self_s"} from spans given as
    (name, start, end, parent_index, job) in recording order (a parent
    precedes its children).  A dropped span has name None; it is skipped
    and its time stays with its parent.

    self_s is each span's duration minus the part its direct child spans
    cover.  total_s sums only spans with no ancestor of the same name, so
    recursion is not counted twice.
    """
    children = {}
    for i, (_, s, e, parent, _) in enumerate(spans):
        if parent >= 0 and spans[i][0] is not None:
            children.setdefault(parent, []).append((s, e))
    out = {}
    for i, (name, s, e, parent, _) in enumerate(spans):
        if name is None:
            continue
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        kids = children.get(i)
        row["self_s"] += (e - s) - (covered(s, e, kids) if kids else 0.0)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["total_s"] += e - s
    return out
