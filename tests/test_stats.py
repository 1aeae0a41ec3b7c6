"""``stats.describe`` against numpy, which it replaces: every figure equal, not close."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forumlens.stats import describe


def _numpy_describe(values: list) -> dict:
    arr = np.asarray(values, dtype=float)
    return {
        "count": arr.size,
        "mean": float(np.mean(arr)),
        "std": float(np.std(arr)),
        "min": float(np.min(arr)),
        "median": float(np.median(arr)),
        "p75": float(np.percentile(arr, 75)),
        "max": float(np.max(arr)),
    }


def _mixed(n: int) -> list:
    """``n`` values across magnitudes and signs, with repeats, ±0.0 and integers."""
    rng = random.Random(n)
    pool = [0.0, -0.0, 1, 3, 3.5, -2.25]
    return [
        rng.choice(pool) if rng.random() < 0.2
        else rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12)
        for _ in range(n)
    ]


_VALUES = st.one_of(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=600),
    st.lists(st.floats(-1e150, 1e150, allow_nan=False), min_size=1, max_size=600),  # has ±0.0
    st.lists(st.sampled_from([0.0, -0.0, 0.1, 1, 2, 1e-300, 7e12]), min_size=1, max_size=600),
)


def _assert_equal(values: list) -> None:
    ours, numpys = describe(values), _numpy_describe(values)
    assert ours == numpys
    # == takes -0.0 for 0.0; these three follow numpy's sign of zero as well, while
    # which zero min, max and p75 pick from mixed zeros is numpy's selection order
    signed = ("mean", "std", "median")
    assert [repr(ours[k]) for k in signed] == [repr(numpys[k]) for k in signed]


@settings(max_examples=300, deadline=None)
@given(values=_VALUES)
@example(values=[-0.0])
@example(values=[-0.0] * 9)
def test_describe_equals_numpy(values):
    _assert_equal(values)


# numpy's pairwise sum changes course at 8 and 128 values and halves above that
@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 257, 5000])
def test_describe_equals_numpy_at_each_summation_block_edge(n):
    _assert_equal(_mixed(n))
    _assert_equal([int(v) for v in _mixed(n)])


def test_describe_of_nothing_is_all_zeros():
    assert describe([]) == {
        "count": 0, "mean": 0.0, "std": 0.0, "min": 0.0, "median": 0.0, "p75": 0.0, "max": 0.0,
    }
