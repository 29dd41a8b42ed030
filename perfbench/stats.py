"""Percentiles and span self times for the benchmark's reports."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks; 0.0 for an empty sequence.

    Linear interpolation on ``(n - 1) * q / 100`` is NumPy's default, so
    figures compare directly with an offline ``numpy.percentile``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def self_times(spans: Sequence[tuple[float, float]], children: dict[int, list[int]]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover.

    ``spans[i]`` is ``(start, end)``; ``children[i]`` lists the indices of
    span ``i``'s children.  Overlapping children (a parent waiting on work
    that two threads did at once) count their union once, and any part of
    a child outside its parent's interval is ignored.
    """
    result = []
    for index, (start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        intervals = sorted(
            (max(spans[c][0], start), min(spans[c][1], end))
            for c in children.get(index, ())
        )
        for lo, hi in intervals:
            if hi <= cursor:
                continue
            lo = max(lo, cursor)
            covered += hi - lo
            cursor = hi
        result.append((end - start) - covered)
    return result
