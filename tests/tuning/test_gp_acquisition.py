"""GP surrogate and acquisition functions."""

import numpy as np
import pytest

from repro.tuning.acquisition import expected_improvement
from repro.tuning.gp import GaussianProcess, matern52_kernel, rbf_kernel


class TestKernels:
    @pytest.mark.parametrize("kernel", [rbf_kernel, matern52_kernel])
    def test_diagonal_is_one(self, kernel):
        x = np.random.default_rng(0).random((5, 3))
        k = kernel(x, x)
        np.testing.assert_allclose(np.diag(k), 1.0, atol=1e-12)

    @pytest.mark.parametrize("kernel", [rbf_kernel, matern52_kernel])
    def test_decreases_with_distance(self, kernel):
        a = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[1.5, 0.0]])
        assert kernel(a, near)[0, 0] > kernel(a, far)[0, 0]

    @pytest.mark.parametrize("kernel", [rbf_kernel, matern52_kernel])
    def test_symmetric_psd(self, kernel):
        x = np.random.default_rng(1).random((8, 2))
        k = kernel(x, x)
        np.testing.assert_allclose(k, k.T, atol=1e-12)
        eig = np.linalg.eigvalsh(k + 1e-10 * np.eye(8))
        assert eig.min() > -1e-8


class TestGaussianProcess:
    def test_interpolates_observations(self):
        gen = np.random.default_rng(0)
        x = gen.random((10, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        gp = GaussianProcess(noise=1e-6).fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-2)
        assert std.max() < 0.1

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([[0.0], [0.1], [0.2]])
        y = np.array([0.0, 0.1, 0.2])
        gp = GaussianProcess().fit(x, y)
        _, std_near = gp.predict(np.array([[0.1]]))
        _, std_far = gp.predict(np.array([[3.0]]))
        assert std_far[0] > std_near[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((0, 1)), np.zeros(0))

    def test_constant_targets_handled(self):
        x = np.random.default_rng(0).random((5, 2))
        gp = GaussianProcess().fit(x, np.full(5, 2.0))
        mean, _ = gp.predict(x)
        np.testing.assert_allclose(mean, 2.0, atol=1e-6)

    def test_invalid_kernel_and_noise(self):
        with pytest.raises(ValueError):
            GaussianProcess(kernel="linear")
        with pytest.raises(ValueError):
            GaussianProcess(noise=0.0)


class TestExpectedImprovement:
    def test_non_negative(self):
        gen = np.random.default_rng(0)
        ei = expected_improvement(gen.normal(size=50), np.abs(gen.normal(size=50)), best=0.5)
        assert (ei >= 0).all()

    def test_zero_when_no_uncertainty_and_worse(self):
        ei = expected_improvement(np.array([0.0]), np.array([0.0]), best=1.0)
        assert ei[0] == 0.0

    def test_higher_mean_higher_ei(self):
        ei = expected_improvement(np.array([0.5, 2.0]), np.array([0.1, 0.1]), best=1.0)
        assert ei[1] > ei[0]

    def test_uncertainty_adds_value(self):
        ei = expected_improvement(np.array([1.0, 1.0]), np.array([0.01, 1.0]), best=1.0)
        assert ei[1] > ei[0]
