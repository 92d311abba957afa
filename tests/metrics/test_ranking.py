"""AUC metrics vs brute force, with property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.ranking import multiclass_auc, roc_auc


def brute_force_auc(y, s):
    """P(pos score > neg score) + 0.5 P(tie) over all pos/neg pairs."""
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_perfectly_wrong(self):
        assert roc_auc(np.array([1, 1, 0, 0]), np.array([0.1, 0.2, 0.8, 0.9])) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc(np.array([0, 1, 0, 1]), np.ones(4)) == 0.5

    def test_single_class_returns_half(self):
        assert roc_auc(np.zeros(5, dtype=int), np.arange(5.0)) == 0.5
        assert roc_auc(np.ones(5, dtype=int), np.arange(5.0)) == 0.5

    def test_matches_brute_force_with_ties(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            y = gen.integers(0, 2, size=30)
            if y.min() == y.max():
                continue
            s = np.round(gen.random(30), 1)  # coarse grid → many ties
            assert roc_auc(y, s) == pytest.approx(brute_force_auc(y, s), abs=1e-12)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([0, 2]), np.array([0.1, 0.2]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([0, 1]), np.array([0.5]))

    @given(st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_monotone_transform(self, n):
        gen = np.random.default_rng(n)
        y = gen.integers(0, 2, size=n)
        s = gen.normal(size=n)
        a1 = roc_auc(y, s)
        a2 = roc_auc(y, np.exp(s))  # strictly monotone
        assert a1 == pytest.approx(a2, abs=1e-12)

    @given(st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_complement_symmetry(self, n):
        gen = np.random.default_rng(n + 1000)
        y = gen.integers(0, 2, size=n)
        s = gen.normal(size=n)
        assert roc_auc(y, s) == pytest.approx(1.0 - roc_auc(1 - y, s), abs=1e-12)


class TestMulticlassAuc:
    def test_macro_average(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        probs = np.eye(3)[y]  # perfect
        assert multiclass_auc(y, probs) == 1.0

    def test_fixed_positive_class(self):
        y = np.array([0, 1, 1, 0])
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.3, 0.7], [0.6, 0.4]])
        auc1 = multiclass_auc(y, probs, positive_class=1)
        assert auc1 == roc_auc((y == 1).astype(int), probs[:, 1])

    def test_random_class_protocol_deterministic(self):
        gen = np.random.default_rng(4)
        y = gen.integers(0, 3, size=40)
        probs = gen.random((40, 3))
        a = multiclass_auc(y, probs, rng=11)
        b = multiclass_auc(y, probs, rng=11)
        assert a == b

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            multiclass_auc(np.array([0, 1]), np.ones((3, 2)))

    def test_uniform_probs_give_half(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert multiclass_auc(y, np.ones((6, 3))) == pytest.approx(0.5)
