"""Losses: cross-entropy and NLL."""

import numpy as np
import pytest

from repro.nn.functional import log_softmax
from tests.gradcheck import gradcheck
from repro.nn.losses import cross_entropy, nll_loss
from repro.nn.tensor import Tensor


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestCrossEntropy:
    def test_matches_manual_computation(self):
        logits = randn(4, 3)
        targets = np.array([0, 2, 1, 0])
        loss = cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        manual = -logp[np.arange(4), targets].mean()
        assert loss == pytest.approx(manual, abs=1e-10)

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 0] = 100.0
        loss = cross_entropy(Tensor(logits), np.array([1, 0])).item()
        assert loss < 1e-6

    def test_gradient(self):
        logits = Tensor(randn(5, 4), requires_grad=True)
        targets = np.array([0, 3, 1, 2, 2])
        gradcheck(lambda a: cross_entropy(a, targets), [logits])

    def test_class_weights(self):
        logits = Tensor(randn(4, 2), requires_grad=True)
        targets = np.array([0, 0, 1, 1])
        w = np.array([1.0, 3.0])
        gradcheck(lambda a: cross_entropy(a, targets, weight=w), [logits])
        # Weighting class 1 more strongly changes the loss.
        l1 = cross_entropy(logits, targets).item()
        l2 = cross_entropy(logits, targets, weight=w).item()
        assert l1 != pytest.approx(l2)

    def test_target_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(randn(3, 2)), np.array([0, 1]))


class TestNLL:
    def test_consistency_with_cross_entropy(self):
        logits = Tensor(randn(3, 4))
        targets = np.array([1, 0, 3])
        assert nll_loss(log_softmax(logits), targets).item() == pytest.approx(
            cross_entropy(logits, targets).item(), abs=1e-12
        )
