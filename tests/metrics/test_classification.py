"""Thresholded metrics: confusion, precision, the paper's AP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.classification import (
    accuracy,
    average_precision,
    confusion_matrix,
    precision_per_class,
)


Y_TRUE = np.array([0, 0, 1, 1, 2, 2, 2])
Y_PRED = np.array([0, 1, 1, 1, 2, 0, 2])


class TestConfusion:
    def test_values(self):
        m = confusion_matrix(Y_TRUE, Y_PRED)
        expected = np.array([[1, 1, 0], [0, 2, 0], [1, 0, 2]])
        np.testing.assert_array_equal(m, expected)

    def test_num_classes_padding(self):
        m = confusion_matrix(np.array([0]), np.array([0]), num_classes=4)
        assert m.shape == (4, 4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 1]), np.array([0]))


class TestPrecisionRecall:
    def test_precision_values(self):
        p = precision_per_class(Y_TRUE, Y_PRED)
        np.testing.assert_allclose(p, [1 / 2, 2 / 3, 1.0])

    def test_never_predicted_class_zero_precision(self):
        p = precision_per_class(np.array([0, 1]), np.array([0, 0]), num_classes=2)
        assert p[1] == 0.0


class TestAveragePrecision:
    def test_paper_definition_mean_of_class_precisions(self):
        ap = average_precision(Y_TRUE, Y_PRED)
        assert ap == pytest.approx((1 / 2 + 2 / 3 + 1.0) / 3)

    def test_excludes_absent_classes(self):
        # Class 2 appears nowhere: not counted in the mean.
        ap = average_precision(np.array([0, 1]), np.array([0, 1]), num_classes=3)
        assert ap == 1.0

    def test_empty_input(self):
        assert average_precision(np.array([], dtype=int), np.array([], dtype=int), 2) == 0.0

    @given(st.integers(2, 50), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_perfect_prediction_is_one(self, n, c):
        gen = np.random.default_rng(n * c)
        y = gen.integers(0, c, size=n)
        assert average_precision(y, y.copy(), c) == 1.0


class TestAccuracyAndReport:
    def test_accuracy(self):
        assert accuracy(Y_TRUE, Y_PRED) == pytest.approx(5 / 7)

    def test_accuracy_empty(self):
        assert accuracy(np.array([], dtype=int), np.array([], dtype=int)) == 0.0

    @given(st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_accuracy_bounds(self, n):
        gen = np.random.default_rng(n)
        y = gen.integers(0, 3, size=n)
        p = gen.integers(0, 3, size=n)
        assert 0.0 <= accuracy(y, p) <= 1.0
