"""Weight initialization: shapes, bounds, statistics, determinism."""

import numpy as np
import pytest

from repro.nn import init


class TestXavier:
    def test_uniform_bounds(self):
        w = init.xavier_uniform((100, 200), rng=0)
        bound = np.sqrt(6.0 / 300)
        assert w.shape == (100, 200)
        assert np.abs(w).max() <= bound

    def test_gain_scales(self):
        w1 = init.xavier_uniform((50, 50), gain=1.0, rng=0)
        w2 = init.xavier_uniform((50, 50), gain=2.0, rng=0)
        np.testing.assert_allclose(w2, 2.0 * w1)

    def test_deterministic_per_seed(self):
        np.testing.assert_allclose(
            init.xavier_uniform((5, 5), rng=7), init.xavier_uniform((5, 5), rng=7)
        )

    def test_1d_shape(self):
        w = init.xavier_uniform((10,), rng=0)
        assert w.shape == (10,)

    def test_conv_style_fans(self):
        # Receptive field multiplies the fans.
        w = init.xavier_uniform((4, 8, 3), rng=0)
        bound = np.sqrt(6.0 / (4 * 3 + 8 * 3))
        assert np.abs(w).max() <= bound

    def test_empty_shape_raises(self):
        with pytest.raises(ValueError):
            init.xavier_uniform(())


class TestKaimingAndOthers:
    def test_zeros(self):
        np.testing.assert_allclose(init.zeros((3, 2)), 0.0)
