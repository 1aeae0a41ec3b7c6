"""Small descriptive-statistics helper shared by the reporting surfaces.

Pure Python, so a stage that only summarises need not import numpy; each
figure follows numpy's order of operations, so it equals ``np.mean``,
``np.std``, ``np.median`` and ``np.percentile(..., 75)`` of the same values
as float64 to the bit. Only which zero min, max and p75 return from values
mixing 0.0 and -0.0 may differ, as that follows numpy's selection order.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Iterable

_BLOCK = 128  # numpy's PW_BLOCKSIZE


def _pairwise_sum(a: list[float], lo: int, hi: int) -> float:
    """numpy's pairwise sum of ``a[lo:hi]``: a plain loop under 8 values, 8
    interleaved accumulators up to a block, and halves cut at a multiple of 8
    above it. ``reduce`` adds left to right, as ``sum`` may not (3.12+)."""
    n = hi - lo
    if n < 8:
        return reduce(add, a[lo:hi], 0.0)
    if n <= _BLOCK:
        end = hi - n % 8
        r = [reduce(add, a[lo + j:end:8]) for j in range(8)]
        folded = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, a[end:hi], folded)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, lo, lo + half) + _pairwise_sum(a, lo + half, hi)


def _mean(a: list[float]) -> float:
    # numpy's reduction starts from the identity 0.0
    return (0.0 + _pairwise_sum(a, 0, len(a))) / len(a)


def describe(values: Iterable[float]) -> dict:
    """count / mean / std (population) / min / median / p75 / max of a sample."""
    xs = [float(v) for v in values]
    n = len(xs)
    if n == 0:
        return {
            "count": 0,
            "mean": 0.0,
            "std": 0.0,
            "min": 0.0,
            "median": 0.0,
            "p75": 0.0,
            "max": 0.0,
        }
    mean = _mean(xs)
    std = math.sqrt(_mean([(x - mean) * (x - mean) for x in xs]))
    s = sorted(xs)
    # numpy's linear percentile: virtual index (n - 1) * 0.75, and its _lerp
    # counts from the nearer end, so a lone value comes back as it is
    low, t = divmod((n - 1) * 0.75, 1.0)
    a, b = s[int(low)], s[min(int(low) + 1, n - 1)]
    p75 = b - (b - a) * (1 - t) if t >= 0.5 or n == 1 else a + (b - a) * t
    return {
        "count": n,
        "mean": mean,
        "std": std,
        "min": s[0],
        "median": _mean(s[(n - 1) // 2:n // 2 + 1]),
        "p75": p75,
        "max": s[-1],
    }
