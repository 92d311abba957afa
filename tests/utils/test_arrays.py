"""``sorted_unique`` is values-only ``np.unique`` without the hash path."""

import numpy as np
import pytest

from repro.utils.arrays import sorted_unique


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_equals_np_unique_on_random_ints(seed, dtype):
    gen = np.random.default_rng(seed)
    values = gen.integers(-50, 50, size=gen.integers(2, 500)).astype(dtype)
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_flattens_like_np_unique():
    values = np.array([[3, 1], [1, 7]])
    np.testing.assert_array_equal(sorted_unique(values), np.unique(values))


@pytest.mark.parametrize("values", [np.empty(0, np.int64), np.array([5])])
def test_empty_and_single(values):
    got = sorted_unique(values)
    assert got.dtype == values.dtype
    np.testing.assert_array_equal(got, np.unique(values))


def test_does_not_modify_its_input():
    values = np.array([4, 2, 4, 1])
    sorted_unique(values)
    np.testing.assert_array_equal(values, [4, 2, 4, 1])
