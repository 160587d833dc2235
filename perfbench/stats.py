"""Summaries of repeated measurements: the median with its sample count,
and the highest percentile that still has ten samples beyond it."""

from __future__ import annotations

import math
import statistics

TAIL_SAMPLES = 10


def tail_percentile(n: int):
    """Highest whole percentile above 50 with at least TAIL_SAMPLES of n
    samples beyond it, or None when n is too small for one."""
    if n <= 0:
        return None
    q = math.floor(100 * (n - TAIL_SAMPLES) / n)
    return q if q > 50 else None


def summarize(values) -> dict:
    """{"median", "n", "tail"}; tail is {"percentile", "value"} by nearest
    rank, or None when there are too few samples for a tail."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    q = tail_percentile(n)
    tail = None
    if q is not None:
        rank = math.ceil(q / 100 * n)
        tail = {"percentile": q, "value": values[rank - 1]}
    return {"median": statistics.median(values), "n": n, "tail": tail}
