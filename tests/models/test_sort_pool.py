"""SortPooling: ordering, truncation, padding, gradients."""

import numpy as np
import pytest

from repro.models.sort_pool import SortPooling, sort_pool
from tests.gradcheck import gradcheck
from repro.nn.tensor import Tensor


class TestSortPool:
    def test_sorts_descending_by_last_channel(self):
        x = Tensor(np.array([[10.0, 0.1], [20.0, 0.3], [30.0, 0.2]]))
        out = sort_pool(x, np.zeros(3, dtype=int), 1, k=3).data
        np.testing.assert_allclose(out[0, :, 1], [0.3, 0.2, 0.1])
        np.testing.assert_allclose(out[0, :, 0], [20.0, 30.0, 10.0])

    def test_truncates_to_k(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        out = sort_pool(x, np.zeros(4, dtype=int), 1, k=2)
        assert out.shape == (1, 2, 2)
        # Keeps the top-2 by last channel (rows 3 and 2).
        np.testing.assert_allclose(out.data[0, :, 1], [7.0, 5.0])

    def test_pads_small_graphs_with_zeros(self):
        x = Tensor(np.ones((2, 3)))
        out = sort_pool(x, np.zeros(2, dtype=int), 1, k=5).data
        np.testing.assert_allclose(out[0, :2], 1.0)
        np.testing.assert_allclose(out[0, 2:], 0.0)

    def test_batched_graphs_sorted_independently(self):
        x = Tensor(np.array([[1.0], [3.0], [2.0], [9.0], [8.0]]))
        batch = np.array([0, 0, 0, 1, 1])
        out = sort_pool(x, batch, 2, k=2).data
        np.testing.assert_allclose(out[0, :, 0], [3.0, 2.0])
        np.testing.assert_allclose(out[1, :, 0], [9.0, 8.0])

    def test_empty_graph_in_batch_all_padding(self):
        x = Tensor(np.array([[1.0], [2.0]]))
        batch = np.array([0, 0])
        out = sort_pool(x, batch, 2, k=2).data  # graph 1 has zero nodes
        np.testing.assert_allclose(out[1], 0.0)

    def test_gradient_flows_to_retained_rows_only(self):
        x = Tensor(np.array([[1.0, 5.0], [1.0, 1.0], [1.0, 3.0]]), requires_grad=True)
        out = sort_pool(x, np.zeros(3, dtype=int), 1, k=2)
        out.sum().backward()
        # Row 1 (smallest key) was truncated: zero grad.
        np.testing.assert_allclose(x.grad[1], 0.0)
        assert np.abs(x.grad[0]).sum() > 0
        assert np.abs(x.grad[2]).sum() > 0

    def test_gradcheck(self):
        gen = np.random.default_rng(0)
        x = Tensor(gen.normal(size=(6, 3)), requires_grad=True)
        batch = np.array([0, 0, 0, 1, 1, 1])
        gradcheck(lambda a: (sort_pool(a, batch, 2, k=2) ** 2).sum(), [x])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            sort_pool(Tensor(np.ones((2, 2))), np.zeros(2, dtype=int), 1, k=0)

    def test_batch_length_mismatch(self):
        with pytest.raises(ValueError):
            sort_pool(Tensor(np.ones((2, 2))), np.zeros(3, dtype=int), 1, k=1)

    def test_module_wrapper(self):
        sp = SortPooling(3)
        out = sp(Tensor(np.ones((4, 2))), np.zeros(4, dtype=int), 1)
        assert out.shape == (1, 3, 2)
        with pytest.raises(ValueError):
            SortPooling(0)
