"""``stats.describe``: correctly rounded mean and std, and figures that no input order changes.

The mean is the correctly rounded sum over n, and the std the square root of
the correctly rounded sum of the float squared deviations over n; a
``fractions.Fraction`` sum is the oracle. count, min, max, median and p75
equal numpy's, and so does the mean of integers, whose float sums are exact.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forumlens.stats import describe


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


def _assert_correctly_rounded(values: list) -> None:
    """mean and std against exact rational sums, each rounded once (``float(Fraction)``)."""
    xs = [float(v) for v in values]
    n = len(xs)
    mean = float(sum(map(Fraction, xs))) / n
    std = math.sqrt(float(sum(Fraction((x - mean) * (x - mean)) for x in xs)) / n)
    found = describe(values)
    assert (repr(found["mean"]), repr(found["std"])) == (repr(mean), repr(std))


def _assert_order_free(values: list, rng: random.Random) -> None:
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert {k: repr(v) for k, v in describe(shuffled).items()} == {
        k: repr(v) for k, v in describe(values).items()
    }


def _assert_numpy_order_statistics(values: list) -> None:
    arr = np.asarray(values, dtype=float)
    found = describe(values)
    # == takes -0.0 for 0.0: describe reads -0.0 as 0.0, while which zero numpy's
    # min, max and p75 pick from mixed zeros is its selection order
    assert {k: found[k] for k in ("count", "min", "max", "median", "p75")} == {
        "count": arr.size,
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
        "median": float(np.median(arr)),
        "p75": float(np.percentile(arr, 75)),
    }
    assert repr(found["median"]) == repr(float(np.median(arr)))
    if all(isinstance(v, int) for v in values):
        assert repr(found["mean"]) == repr(float(np.mean(arr)))


@settings(max_examples=300, deadline=None)
@given(values=_VALUES)
@example(values=[-0.0])
@example(values=[-0.0] * 9)
@example(values=[2.0**53, 1.0, 1.0])
def test_mean_and_std_are_correctly_rounded(values):
    _assert_correctly_rounded(values)


@settings(max_examples=300, deadline=None)
@given(values=_VALUES, rng=st.randoms(use_true_random=False))
def test_every_figure_is_independent_of_input_order(values, rng):
    _assert_order_free(values, rng)


@pytest.mark.parametrize("values", [[2.0**53, 1.0, 1.0], [0.0, -0.0], [1e16, 1.0, -1e16, 1.0]])
def test_pinned_inputs_give_the_same_figures_reversed(values):
    # left to right, 2**53 + 1 + 1 rounds each 1 away; 1 + 1 + 2**53 keeps both
    assert {k: repr(v) for k, v in describe(values).items()} == {
        k: repr(v) for k, v in describe(values[::-1]).items()
    }


@settings(max_examples=300, deadline=None)
@given(values=_VALUES)
@example(values=[-0.0])
@example(values=[-0.0] * 9)
def test_order_statistics_and_integer_means_equal_numpy(values):
    _assert_numpy_order_statistics(values)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 257, 5000])
def test_describe_holds_its_contract_at_each_size(n):
    rng = random.Random(n)
    for values in (_mixed(n), [int(v) for v in _mixed(n)]):
        _assert_correctly_rounded(values)
        _assert_order_free(values, rng)
        _assert_numpy_order_statistics(values)


def test_describe_of_nothing_is_all_zeros():
    assert describe([]) == {
        "count": 0, "mean": 0.0, "std": 0.0, "min": 0.0, "median": 0.0, "p75": 0.0, "max": 0.0,
    }
