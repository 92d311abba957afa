"""Adam and gradient clipping: convergence, mechanics, state round-trips."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor


def quadratic_steps(opt_factory, steps=200):
    """Minimize ||x - 3||^2 from x=0; returns final parameter."""
    x = Parameter(np.zeros(4))
    opt = opt_factory([x])
    target = 3.0
    for _ in range(steps):
        opt.zero_grad()
        loss = ((x - target) * (x - target)).sum()
        loss.backward()
        opt.step()
    return x.data


class TestConvergence:
    def test_adam(self):
        final = quadratic_steps(lambda p: Adam(p, lr=0.1))
        np.testing.assert_allclose(final, 3.0, atol=1e-2)

    def test_adam_weight_decay_coupled(self):
        x = Parameter(np.ones(2) * 5)
        opt = Adam([x], lr=0.05, weight_decay=1.0)
        for _ in range(300):
            opt.zero_grad()
            x.grad = np.zeros_like(x.data)
            opt.step()
        assert np.abs(x.data).max() < 0.5


class TestMechanics:
    def test_skips_params_without_grad(self):
        x = Parameter(np.ones(2))
        opt = Adam([x], lr=0.1)
        opt.step()  # no grad set — must not move or crash
        np.testing.assert_allclose(x.data, 1.0)

    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=0.0)

    def test_zero_grad(self):
        x = Parameter(np.ones(2))
        x.grad = np.ones(2)
        Adam([x], lr=0.1).zero_grad()
        assert x.grad is None


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        x = Parameter(np.zeros(4))
        x.grad = np.full(4, 10.0)
        pre = clip_grad_norm([x], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(x.grad) == pytest.approx(1.0)

    def test_no_clip_below_max(self):
        x = Parameter(np.zeros(2))
        x.grad = np.array([0.3, 0.4])
        pre = clip_grad_norm([x], max_norm=1.0)
        assert pre == pytest.approx(0.5)
        np.testing.assert_allclose(x.grad, [0.3, 0.4])

    def test_handles_missing_grads(self):
        x = Parameter(np.zeros(2))
        assert clip_grad_norm([x], 1.0) == 0.0

    def test_all_zero_grads_no_warning(self):
        import warnings

        x = Parameter(np.zeros(3))
        x.grad = np.zeros(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any divide warning fails
            pre = clip_grad_norm([x], max_norm=1.0)
        assert pre == 0.0
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_nonfinite_norm_left_unscaled(self):
        # Scaling by max_norm/inf would silently zero every gradient;
        # the caller (trainer guard) must see the poison instead.
        x = Parameter(np.zeros(2))
        y = Parameter(np.zeros(2))
        x.grad = np.array([np.inf, 1.0])
        y.grad = np.array([2.0, 3.0])
        pre = clip_grad_norm([x, y], max_norm=1.0)
        assert np.isinf(pre)
        np.testing.assert_array_equal(y.grad, [2.0, 3.0])

    def test_nan_norm_reported(self):
        x = Parameter(np.zeros(2))
        x.grad = np.array([np.nan, 0.0])
        assert np.isnan(clip_grad_norm([x], max_norm=1.0))

    def test_shared_grad_array_scaled_once(self):
        # ``a + b`` hands the same gradient array to both leaves; an
        # in-place scale would hit it once per leaf.
        a = Parameter(np.ones(3))
        b = Parameter(np.ones(3))
        ((a + b) * Tensor(np.array([3.0, 4.0, 0.0]))).sum().backward()
        pre = clip_grad_norm([a, b], max_norm=1.0)
        assert pre == pytest.approx(np.sqrt(50.0))
        total = np.sqrt((a.grad**2).sum() + (b.grad**2).sum())
        assert total == pytest.approx(1.0)
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_callers_backward_grad_left_untouched(self):
        a = Parameter(np.zeros(2))
        seed = np.array([30.0, 40.0])
        (a + 0.0).backward(seed)
        clip_grad_norm([a], max_norm=1.0)
        np.testing.assert_array_equal(seed, [30.0, 40.0])
        np.testing.assert_allclose(a.grad, [0.6, 0.8])


@pytest.mark.fault
class TestStateDict:
    """Name-keyed optimizer state: the checkpoint serialization contract."""

    def quadratic_grad(self, p, target=3.0):
        p.grad = 2.0 * (p.data - target)

    def test_state_keyed_by_given_names(self):
        w = Parameter(np.ones(2))
        b = Parameter(np.ones(1))
        opt = Adam([("layer.weight", w), ("layer.bias", b)], lr=0.1)
        self.quadratic_grad(w)
        self.quadratic_grad(b)
        opt.step()
        assert set(opt.state) == {"layer.weight", "layer.bias"}
        assert set(opt.state["layer.weight"]) == {"m", "v"}

    def test_positional_names_for_plain_params(self):
        opt = Adam([Parameter(np.ones(1)), Parameter(np.ones(1))], lr=0.1)
        for p in opt.params:
            self.quadratic_grad(p)
        opt.step()
        assert set(opt.state_dict()["state"]) == {"p0", "p1"}

    def test_state_dict_layout(self):
        # Checkpoints store exactly this layout; older ones must still load.
        w = Parameter(np.ones(2))
        opt = Adam([("w", w)], lr=0.1)
        self.quadratic_grad(w)
        opt.step()
        sd = opt.state_dict()
        assert set(sd) == {"lr", "hyper", "state"}
        assert sd["lr"] == 0.1 and sd["hyper"] == {"t": 1}
        assert set(sd["state"]) == {"w"} and set(sd["state"]["w"]) == {"m", "v"}

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Adam([("w", Parameter(np.ones(1))), ("w", Parameter(np.ones(1)))])

    def test_unknown_names_rejected_on_load(self):
        opt = Adam([("w", Parameter(np.ones(1)))])
        with pytest.raises(KeyError, match="ghost"):
            opt.load_state_dict({"lr": 1e-3, "hyper": {}, "state": {"ghost": {}}})

    def test_adam_roundtrip_restores_bitwise_trajectory(self):
        # Train 3 steps, snapshot, train 3 more; then rebuild *new*
        # parameter objects at the snapshot values, load the snapshot,
        # and train the same 3 steps — trajectories must match bit-exactly.
        # (Under the old id(p)-keyed state this transfer was impossible:
        # fresh objects silently restarted from empty moments.)
        w = Parameter(np.zeros(4))
        opt = Adam([("w", w)], lr=0.1)
        for _ in range(3):
            self.quadratic_grad(w)
            opt.step()
        sd = opt.state_dict()
        snap_values = w.data.copy()
        for _ in range(3):
            self.quadratic_grad(w)
            opt.step()

        w2 = Parameter(snap_values)
        opt2 = Adam([("w", w2)], lr=0.1)
        opt2.load_state_dict(sd)
        assert opt2._t == 3  # bias-correction step count restored
        for _ in range(3):
            self.quadratic_grad(w2)
            opt2.step()
        np.testing.assert_array_equal(w.data, w2.data)

    def test_snapshot_is_a_deep_copy(self):
        w = Parameter(np.zeros(2))
        opt = Adam([("w", w)], lr=0.1)
        self.quadratic_grad(w)
        opt.step()
        sd = opt.state_dict()
        frozen = sd["state"]["w"]["m"].copy()
        self.quadratic_grad(w)
        opt.step()  # must not mutate the earlier snapshot
        np.testing.assert_array_equal(sd["state"]["w"]["m"], frozen)

    def test_state_isolated_across_optimizers(self):
        # Regression for id(p)-keyed state: state must belong to the
        # (optimizer, name) pair, never leak through recycled objects.
        def run(seed_steps):
            w = Parameter(np.zeros(2))
            opt = Adam([("w", w)], lr=0.1)
            for _ in range(seed_steps):
                self.quadratic_grad(w)
                opt.step()
            return opt

        a = run(5)
        b = run(1)
        assert a.state["w"]["m"] is not b.state["w"]["m"]
        assert a._t == 5 and b._t == 1
