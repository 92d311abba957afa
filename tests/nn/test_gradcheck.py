"""The gradcheck harness itself: detects correct and broken gradients."""

import numpy as np
import pytest

from tests.gradcheck import gradcheck, numeric_grad
from repro.nn.tensor import Tensor


class TestNumericGrad:
    def test_matches_analytic_for_quadratic(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        g = numeric_grad(lambda a: (a * a).sum(), [x], wrt=0)
        np.testing.assert_allclose(g, 2 * x.data, atol=1e-6)

    def test_restores_input(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = x.data.copy()
        numeric_grad(lambda a: (a * a).sum(), [x], wrt=0)
        np.testing.assert_array_equal(x.data, before)


class TestGradcheck:
    def test_passes_for_correct_gradient(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 2)), requires_grad=True)
        assert gradcheck(lambda a: (a.tanh() ** 2).sum(), [x])

    def test_detects_broken_vjp(self):
        # An op with a deliberately wrong backward: claims grad = 3x but
        # forward is x^2 (true grad 2x).
        def broken_square(t: Tensor) -> Tensor:
            out = t.data**2
            return Tensor._from_op(out, (t,), (lambda g: g * 3.0 * t.data,), "broken")

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(AssertionError):
            gradcheck(lambda a: broken_square(a).sum(), [x])

    def test_rejects_nonscalar_output(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            gradcheck(lambda a: a * 2.0, [x])

    def test_skips_non_grad_inputs(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))  # constant input
        assert gradcheck(lambda a, b: (a * b).sum(), [x, c])
