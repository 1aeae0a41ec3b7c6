"""Small descriptive-statistics helper shared by the reporting surfaces."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def describe(values: Iterable[float]) -> dict:
    """count / mean / std (population) / min / median / p75 / max of a sample."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {
            "count": 0,
            "mean": 0.0,
            "std": 0.0,
            "min": 0.0,
            "median": 0.0,
            "p75": 0.0,
            "max": 0.0,
        }
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "median": float(np.median(arr)),
        "p75": float(np.percentile(arr, 75)),
        "max": float(arr.max()),
    }
