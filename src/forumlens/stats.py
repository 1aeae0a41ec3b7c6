"""Small descriptive-statistics helper shared by the reporting surfaces.

Pure Python, so a stage that only summarises need not import numpy. The mean
and the std divide sums taken with ``math.fsum``, which are correctly rounded, so
every figure depends only on the multiset of values, never on their order, and
callers need not sort. count, min, max, median and p75 follow numpy's formulas
and equal ``np.min``, ``np.max``, ``np.median`` and ``np.percentile(..., 75)``.
"""

from __future__ import annotations

import math
from typing import Iterable


def describe(values: Iterable[float]) -> dict:
    """count / mean / std (population) / min / median / p75 / max of a sample."""
    # + 0.0 reads -0.0 as 0.0, so no input order decides which zero a figure is
    xs = sorted(float(v) + 0.0 for v in values)
    n = len(xs)
    if n == 0:
        return dict.fromkeys(("mean", "std", "min", "median", "p75", "max"), 0.0) | {"count": 0}
    mean = math.fsum(xs) / n
    std = math.sqrt(math.fsum([(x - mean) * (x - mean) for x in xs]) / n)
    # numpy's linear percentile: virtual index (n - 1) * 0.75, and its _lerp
    # counts from the nearer end, so a lone value comes back as it is
    low, t = divmod((n - 1) * 0.75, 1.0)
    a, b = xs[int(low)], xs[min(int(low) + 1, n - 1)]
    p75 = b - (b - a) * (1 - t) if t >= 0.5 or n == 1 else a + (b - a) * t
    mid = xs[(n - 1) // 2:n // 2 + 1]  # numpy's median: the mean of the middle one or two
    median = math.fsum(mid) / len(mid)
    return {"count": n, "mean": mean, "std": std, "min": xs[0], "median": median, "p75": p75,
            "max": xs[-1]}
