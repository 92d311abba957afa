"""Hypothesis property tests of the autograd engine as a whole.

These check algebraic identities of differentiation — linearity, the
chain rule, symmetry of bilinear forms — on randomly composed inputs,
complementing the per-op finite-difference checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor


def randn(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestLinearity:
    @given(st.integers(0, 500), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_gradient_linear_in_upstream(self, seed, a, b):
        """grad of (a+b)·f = a·grad f + b·grad f."""
        x1 = Tensor(randn((4,), seed), requires_grad=True)
        ((x1 * x1).sum() * (a + b)).backward()
        g_sum = x1.grad.copy()

        x2 = Tensor(x1.data.copy(), requires_grad=True)
        ((x2 * x2).sum() * a).backward()
        ((x2 * x2).sum() * b).backward()
        np.testing.assert_allclose(g_sum, x2.grad, atol=1e-9)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_sum_rule(self, seed):
        """grad(f + g) = grad f + grad g."""
        x = Tensor(randn((5,), seed), requires_grad=True)
        f = (x * x).sum()
        g = x.tanh().sum()
        (f + g).backward()
        combined = x.grad.copy()

        x2 = Tensor(x.data.copy(), requires_grad=True)
        (x2 * x2).sum().backward()
        part1 = x2.grad.copy()
        x2.grad = None
        x2.tanh().sum().backward()
        np.testing.assert_allclose(combined, part1 + x2.grad, atol=1e-9)


class TestChainRule:
    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_scalar_chain(self, seed):
        """d/dx tanh(x)^2 = 2 tanh(x)(1 - tanh(x)^2)."""
        x = Tensor(randn((6,), seed), requires_grad=True)
        (x.tanh() ** 2).sum().backward()
        t = np.tanh(x.data)
        np.testing.assert_allclose(x.grad, 2 * t * (1 - t * t), atol=1e-9)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_log_exp_inverse(self, seed):
        """d/dx log(exp(2x)) / 2 = 1, with exp(2x) = (1 + tanh x) / (1 - tanh x)."""
        x = Tensor(randn((4,), seed), requires_grad=True)
        t = x.tanh()
        (((1.0 + t) / (1.0 - t)).log() * 0.5).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0, atol=1e-8)


class TestBilinear:
    @given(st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_form_gradient(self, n, m):
        """grad_x of x^T A y is A y; grad_y is A^T x."""
        seed = n * 100 + m
        a = randn((n, m), seed)
        x = Tensor(randn((n,), seed + 1), requires_grad=True)
        y = Tensor(randn((m,), seed + 2), requires_grad=True)
        (x @ Tensor(a) @ y).backward()
        np.testing.assert_allclose(x.grad, a @ y.data, atol=1e-9)
        np.testing.assert_allclose(y.grad, a.T @ x.data, atol=1e-9)


class TestGradientOfConstantPaths:
    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_detached_branch_gets_no_grad(self, seed):
        x = Tensor(randn((3,), seed), requires_grad=True)
        frozen = Tensor(x.data)  # same data, off the tape
        out = (x * frozen).sum()  # only the live branch is differentiated
        out.backward()
        np.testing.assert_allclose(x.grad, frozen.data, atol=1e-12)

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_zero_function_zero_grad(self, seed):
        x = Tensor(randn((3,), seed), requires_grad=True)
        (x * 0.0).sum().backward()
        np.testing.assert_allclose(x.grad, 0.0)
