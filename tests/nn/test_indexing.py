"""Gather/scatter/segment ops: values and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.gradcheck import gradcheck
from repro.nn.indexing import (
    gather,
    scatter_add,
    segment_count,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn.tensor import Tensor


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestGather:
    def test_values(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = gather(x, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_gradient_duplicates_accumulate(self):
        x = Tensor(randn(4, 3), requires_grad=True)
        gradcheck(lambda a: (gather(a, np.array([1, 1, 3])) ** 2).sum(), [x])

    def test_rejects_float_index(self):
        with pytest.raises(TypeError):
            gather(Tensor(randn(3, 2)), np.array([0.5]))

    def test_rejects_2d_index(self):
        with pytest.raises(ValueError):
            gather(Tensor(randn(3, 2)), np.array([[0], [1]]))


class TestSegmentSum:
    def test_values_and_empty_segments(self):
        x = Tensor(np.array([[1.0], [2.0], [4.0]]))
        out = segment_sum(x, np.array([0, 0, 2]), 4)
        np.testing.assert_allclose(out.data, [[3.0], [0.0], [4.0], [0.0]])

    def test_gradient(self):
        x = Tensor(randn(5, 2), requires_grad=True)
        idx = np.array([0, 1, 1, 2, 0])
        gradcheck(lambda a: (segment_sum(a, idx, 3) ** 2).sum(), [x])

    def test_3d_input(self):
        x = Tensor(randn(4, 2, 3), requires_grad=True)
        idx = np.array([0, 1, 0, 1])
        gradcheck(lambda a: (segment_sum(a, idx, 2) ** 2).sum(), [x])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            segment_sum(Tensor(randn(2, 2)), np.array([0, 5]), 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            segment_sum(Tensor(randn(2, 2)), np.array([0]), 3)

    def test_scatter_add_alias(self):
        x = Tensor(randn(3, 2))
        idx = np.array([1, 1, 0])
        np.testing.assert_allclose(
            scatter_add(x, idx, 2).data, segment_sum(x, idx, 2).data
        )


class TestSegmentMeanMaxCount:
    def test_count(self):
        np.testing.assert_allclose(segment_count(np.array([0, 0, 2]), 4), [2, 0, 1, 0])

    def test_mean_values(self):
        x = Tensor(np.array([[2.0], [4.0], [10.0]]))
        out = segment_mean(x, np.array([0, 0, 1]), 3)
        np.testing.assert_allclose(out.data, [[3.0], [10.0], [0.0]])

    def test_mean_gradient(self):
        x = Tensor(randn(4, 2), requires_grad=True)
        idx = np.array([0, 0, 1, 0])
        gradcheck(lambda a: (segment_mean(a, idx, 2) ** 2).sum(), [x])

    def test_max_values_and_fill(self):
        x = Tensor(np.array([[1.0], [5.0], [-2.0]]))
        out = segment_max(x, np.array([0, 0, 2]), 3, fill=-7.0)
        np.testing.assert_allclose(out.data, [[5.0], [-7.0], [-2.0]])

    def test_max_gradient(self):
        x = Tensor(randn(5, 2), requires_grad=True)
        idx = np.array([0, 1, 1, 0, 1])
        gradcheck(lambda a: (segment_max(a, idx, 2) ** 2).sum(), [x])


class TestSegmentSoftmax:
    def test_normalizes_per_segment(self):
        logits = Tensor(randn(6, 2))
        idx = np.array([0, 0, 1, 1, 1, 2])
        out = segment_softmax(logits, idx, 3).data
        sums = np.zeros((3, 2))
        np.add.at(sums, idx, out)
        np.testing.assert_allclose(sums, 1.0)

    def test_single_element_segment_is_one(self):
        out = segment_softmax(Tensor(np.array([5.0])), np.array([0]), 1)
        np.testing.assert_allclose(out.data, [1.0])

    def test_invariant_to_per_segment_shift(self):
        idx = np.array([0, 0, 1, 1])
        logits = np.array([1.0, 2.0, -1.0, 0.5])
        shifted = logits + np.array([10.0, 10.0, -3.0, -3.0])
        a = segment_softmax(Tensor(logits), idx, 2).data
        b = segment_softmax(Tensor(shifted), idx, 2).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_extreme_logits_stable(self):
        out = segment_softmax(
            Tensor(np.array([1000.0, 999.0])), np.array([0, 0]), 1
        ).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_gradient_1d(self):
        logits = Tensor(randn(5), requires_grad=True)
        idx = np.array([0, 0, 1, 1, 1])
        gradcheck(lambda a: (segment_softmax(a, idx, 2) ** 2).sum(), [logits])

    def test_gradient_multihead(self):
        logits = Tensor(randn(6, 3), requires_grad=True)
        idx = np.array([0, 0, 1, 2, 2, 2])
        gradcheck(lambda a: (segment_softmax(a, idx, 3) ** 2).sum(), [logits])

    @given(st.integers(2, 20), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_property_rows_sum_to_one(self, n_edges, n_segments):
        gen = np.random.default_rng(n_edges * 7 + n_segments)
        idx = gen.integers(0, n_segments, size=n_edges)
        out = segment_softmax(Tensor(gen.normal(size=n_edges)), idx, n_segments).data
        sums = np.bincount(idx, weights=out, minlength=n_segments)
        present = np.bincount(idx, minlength=n_segments) > 0
        np.testing.assert_allclose(sums[present], 1.0, atol=1e-9)
