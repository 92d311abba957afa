"""Functional ops: activations, softmax, dropout, one-hot."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from tests import oracles
from tests.gradcheck import gradcheck
from repro.nn.tensor import Tensor


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestActivations:
    def test_relu_values(self):
        out = F.relu(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_leaky_relu_slope(self):
        # The GAT reference's activation (the library fuses it into the edge pass).
        out = oracles.leaky_relu(Tensor(np.array([-10.0, 3.0])), 0.2)
        np.testing.assert_allclose(out.data, [-2.0, 3.0])

    def test_tanh_delegates(self):
        x = Tensor(randn(4))
        np.testing.assert_allclose(F.tanh(x).data, np.tanh(x.data))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = F.softmax(Tensor(randn(4, 5)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0)

    def test_stability_large_values(self):
        out = F.softmax(Tensor(np.array([[1e4, 1e4 + 1]])))
        assert np.isfinite(out.data).all()

    def test_gradient(self):
        x = Tensor(randn(3, 4), requires_grad=True)
        gradcheck(lambda a: (F.softmax(a, axis=1) ** 2).sum(), [x])

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(randn(3, 4))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10
        )

    def test_log_softmax_gradient(self):
        x = Tensor(randn(3, 4), requires_grad=True)
        gradcheck(lambda a: (F.log_softmax(a, axis=1) * F.log_softmax(a, axis=1)).sum(), [x])

    @given(st.integers(1, 5), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_softmax_invariant_to_shift(self, rows, cols):
        x = np.random.default_rng(rows * cols).normal(size=(rows, cols))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestDropout:
    def test_identity_when_not_training(self):
        x = Tensor(randn(10, 10))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_identity_when_p_zero(self):
        x = Tensor(randn(4))
        assert F.dropout(x, 0.0, training=True) is x

    def test_scales_kept_elements(self):
        x = Tensor(np.ones((100, 100)))
        out = F.dropout(x, 0.5, training=True, rng=0).data
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        # Expectation preserved within sampling tolerance.
        assert abs(out.mean() - 1.0) < 0.05

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(randn(3)), 1.0, training=True)

    def test_gradient_masks(self):
        x = Tensor(randn(5, 5), requires_grad=True)
        out = F.dropout(x, 0.4, training=True, rng=1)
        out.sum().backward()
        # Gradient is the same mask*scale applied to ones.
        np.testing.assert_allclose((x.grad == 0), (out.data == 0))


class TestOneHotAndPad:
    def test_one_hot_basic(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, np.eye(3)[[0, 2, 1]])

    def test_one_hot_negative_is_zero_row(self):
        out = F.one_hot(np.array([-1, 1]), 2)
        np.testing.assert_allclose(out, [[0, 0], [0, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)

    def test_one_hot_requires_1d(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([[1]]), 2)
