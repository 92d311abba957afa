"""Compute-dtype policy: semantics, float32 gradients, float64 pin.

Three layers of protection for the mixed-precision path:

* policy mechanics — resolution, scoping, Tensor coercion, module casts;
* float32 gradient fidelity — every conv layer and loss produces grads
  that agree with the float64 engine at loosened tolerances, plus a
  genuine finite-difference gradcheck at float32-appropriate eps;
* the float64 **bit-identity pin** — a full training step whose loss,
  output, gradients, and post-Adam parameters are hashed against values
  captured from the pre-policy seed engine. Any default-path drift
  (one rounding change, one reordered reduction) fails this test.
"""

import hashlib

import numpy as np
import pytest

from repro.models.layers import GATConv, GCNConv
from repro.models.rgcn import RGCNConv
from repro.nn import dtype as dtp
from repro.nn import functional as F
from repro.nn.conv import Conv1d, MaxPool1d
from tests.gradcheck import gradcheck
from repro.nn.losses import cross_entropy, nll_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


class TestPolicySemantics:
    def test_default_is_float64(self):
        assert dtp.get_compute_dtype() == np.dtype("float64")
        assert dtp.DEFAULT_DTYPE == dtp.FLOAT64

    def test_context_sets_and_restores(self):
        before = dtp.get_compute_dtype()
        with dtp.compute_dtype("float32") as active:
            assert active == dtp.FLOAT32
            assert dtp.get_compute_dtype() == dtp.FLOAT32
        assert dtp.get_compute_dtype() == before

    def test_context_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with dtp.compute_dtype("float32"):
                raise RuntimeError("boom")
        assert dtp.get_compute_dtype() == dtp.FLOAT64

    def test_set_returns_previous(self):
        prev = dtp.set_compute_dtype("float32")
        try:
            assert prev == dtp.FLOAT64
            assert dtp.get_compute_dtype() == dtp.FLOAT32
        finally:
            dtp.set_compute_dtype(prev)

    def test_resolve_accepts_aliases(self):
        assert dtp.resolve_dtype("float32") == dtp.FLOAT32
        assert dtp.resolve_dtype(np.float64) == dtp.FLOAT64
        assert dtp.resolve_dtype(np.dtype("f4")) == dtp.FLOAT32

    @pytest.mark.parametrize("bad", ["float16", "int32", "complex128", "bool"])
    def test_resolve_rejects_unsupported(self, bad):
        with pytest.raises(ValueError, match="unsupported compute dtype"):
            dtp.resolve_dtype(bad)

    def test_coerce_follows_policy(self):
        x64 = np.ones(3)
        ints = np.arange(3)
        with dtp.compute_dtype("float32"):
            assert dtp.coerce(x64).dtype == np.dtype("float32")
            assert dtp.coerce(ints) is ints  # ints pass through untouched
        assert dtp.coerce(x64) is x64  # already at policy: no copy


class TestTensorUnderPolicy:
    def test_tensor_coerces_to_active_dtype(self):
        with dtp.compute_dtype("float32"):
            t = Tensor(np.ones(4))
            assert t.data.dtype == np.dtype("float32")
            assert Tensor([1.0, 2.0]).data.dtype == np.dtype("float32")
            # Integer/bool payloads are not floats — never coerced.
            assert Tensor(np.arange(4)).data.dtype.kind == "i"
            assert Tensor(np.ones(4, dtype=bool)).data.dtype.kind == "b"

    def test_ops_and_grads_stay_float32(self):
        with dtp.compute_dtype("float32"):
            a = Tensor(np.ones((3, 4)), requires_grad=True)
            b = Tensor(np.ones((4, 2)), requires_grad=True)
            out = (a @ b).relu().sum()
            assert out.data.dtype == np.dtype("float32")
            out.backward()
        assert a.grad.dtype == np.dtype("float32")
        assert b.grad.dtype == np.dtype("float32")

    def test_one_hot_follows_policy(self):
        labels = np.array([0, 2, -1])
        assert F.one_hot(labels, 3).dtype == np.dtype("float64")
        with dtp.compute_dtype("float32"):
            enc = F.one_hot(labels, 3)
        assert enc.dtype == np.dtype("float32")
        np.testing.assert_array_equal(enc.sum(axis=1), [1.0, 1.0, 0.0])


class TestCastModule:
    def test_casts_params_and_drops_grads(self):
        layer = GCNConv(3, 2, rng=0)
        layer.weight.grad = np.zeros_like(layer.weight.data)
        dtp.cast_module(layer, "float32")
        for _, p in layer.named_parameters():
            assert p.data.dtype == np.dtype("float32")
            assert p.grad is None

    def test_float64_roundtrip_changes_nothing_but_precision(self):
        layer = GCNConv(3, 2, rng=0)
        before = {k: v.data.copy() for k, v in layer.named_parameters()}
        dtp.cast_module(layer, "float32")
        dtp.cast_module(layer, "float64")
        for k, v in layer.named_parameters():
            assert v.data.dtype == np.dtype("float64")
            np.testing.assert_allclose(v.data, before[k], rtol=1e-6, atol=1e-7)


# --------------------------------------------------------------------- #
# float32 gradient fidelity
# --------------------------------------------------------------------- #

# Loosened tolerances: float32 has ~7 significant digits; after a few
# matmul/softmax/scatter stages the analytic grads should still agree
# with the float64 engine to far better than a percent.
F32_RTOL, F32_ATOL = 5e-3, 5e-4


def _grad_pair(build, run, seed=0):
    """Analytic grads for one module at float64 vs float32 policy.

    ``build(rng)`` constructs the module + ndarray inputs; ``run(module,
    *inputs)`` returns a scalar Tensor. The float32 leg casts the same
    parameters/inputs and executes under the float32 policy, so the two
    legs differ only in precision.
    """
    grads = {}
    for spec in ("float64", "float32"):
        module, inputs = build(np.random.default_rng(seed))
        if spec == "float32":
            dtp.cast_module(module, spec)
            inputs = [
                x.astype(spec) if isinstance(x, np.ndarray) and x.dtype.kind == "f" else x
                for x in inputs
            ]
        with dtp.compute_dtype(spec):
            loss = run(module, *inputs)
            assert loss.data.dtype == np.dtype(spec)
            loss.backward()
        grads[spec] = {k: p.grad for k, p in module.named_parameters() if p.grad is not None}
    assert grads["float64"].keys() == grads["float32"].keys()
    return grads["float64"], grads["float32"]


def _assert_grads_close(g64, g32):
    for name in g64:
        assert g32[name].dtype == np.dtype("float32"), name
        np.testing.assert_allclose(
            g32[name], g64[name], rtol=F32_RTOL, atol=F32_ATOL, err_msg=name
        )


class TestFloat32Gradients:
    def _graph(self, rng, n=9, e=24, fdim=5, edim=3):
        x = rng.normal(size=(n, fdim))
        ei = rng.integers(0, n, size=(2, e))
        ea = rng.normal(size=(e, edim))
        return x, ei, ea

    def test_gcn_conv(self):
        def build(rng):
            x, ei, _ = self._graph(rng)
            return GCNConv(5, 4, rng=1), [x, ei]

        g64, g32 = _grad_pair(build, lambda m, x, ei: m(Tensor(x), ei).tanh().sum())
        _assert_grads_close(g64, g32)

    def test_gat_conv_with_edge_attr(self):
        def build(rng):
            x, ei, ea = self._graph(rng)
            return GATConv(5, 4, heads=2, edge_dim=3, rng=1), [x, ei, ea]

        g64, g32 = _grad_pair(
            build, lambda m, x, ei, ea: m(Tensor(x), ei, edge_attr=ea).tanh().sum()
        )
        _assert_grads_close(g64, g32)

    def test_rgcn_conv(self):
        def build(rng):
            x, ei, _ = self._graph(rng)
            rel = np.eye(3)[rng.integers(0, 3, size=ei.shape[1])]
            return RGCNConv(5, 4, num_relations=3, num_bases=2, rng=1), [x, ei, rel]

        g64, g32 = _grad_pair(
            build, lambda m, x, ei, rel: m(Tensor(x), ei, edge_attr=rel).tanh().sum()
        )
        _assert_grads_close(g64, g32)

    def test_conv1d_maxpool(self):
        def build(rng):
            x = rng.normal(size=(2, 3, 12))
            return Conv1d(3, 4, kernel_size=3, rng=1), [x]

        def run(m, x):
            return MaxPool1d(2)(m(Tensor(x)).relu()).sum()

        g64, g32 = _grad_pair(build, run)
        _assert_grads_close(g64, g32)

    @pytest.mark.parametrize("loss_name", ["cross_entropy", "nll"])
    def test_losses(self, loss_name):
        def build(rng):
            logits = rng.normal(size=(10, 4))
            labels = rng.integers(0, 4, size=10)
            return _LogitHolder(logits), [labels]

        def run(holder, labels):
            logits = holder.logits
            if loss_name == "cross_entropy":
                return cross_entropy(logits, labels)
            return nll_loss(F.log_softmax(logits), labels)

        g64, g32 = _grad_pair(build, run)
        _assert_grads_close(g64, g32)

    def test_finite_difference_gradcheck_at_float32(self):
        """A genuine float32 finite-difference check at appropriate eps.

        eps must sit well above float32 roundoff (central differences
        bottom out around ``cbrt(2^-23) ~ 5e-3``); tolerances scale
        accordingly.
        """
        rng = np.random.default_rng(7)
        with dtp.compute_dtype("float32"):
            w = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
            x = np.linspace(-1.0, 1.0, 8 * 4, dtype=np.float32).reshape(8, 4)
            labels = np.arange(8) % 3
            gradcheck(
                lambda w: cross_entropy(Tensor(x) @ w, labels),
                [w],
                eps=1e-2,
                atol=5e-2,
                rtol=5e-2,
            )


class _LogitHolder:
    """Minimal module-like wrapper so ``_grad_pair`` can cast/read params."""

    def __init__(self, logits):
        from repro.nn.module import Parameter

        self.logits = Parameter(logits)

    def named_parameters(self):
        return [("logits", self.logits)]


# --------------------------------------------------------------------- #
# Adam float64 master weights
# --------------------------------------------------------------------- #


def _fp32_param(values):
    """A reduced-precision Parameter, built the way ``cast_module`` does.

    (Constructing from a float32 array directly would be coerced back to
    the float64 default policy by the Tensor constructor.)
    """
    from repro.nn.module import Parameter

    p = Parameter(np.asarray(values, dtype=np.float64))
    p.data = p.data.astype(np.float32)
    return p


class TestAdamMasterWeights:
    def _step(self, param, lr=1e-2):
        opt = Adam([("w", param)], lr=lr)
        param.grad = np.full_like(param.data, 0.5)
        opt.step()
        return opt

    def test_float32_param_gets_float64_master(self):
        p = _fp32_param(np.ones(5))
        opt = self._step(p)
        master = opt.state["w"]["master"]
        assert master.dtype == np.dtype("float64")
        assert p.data.dtype == np.dtype("float32")
        # The working copy is the reduced cast of the master.
        np.testing.assert_array_equal(p.data, master.astype(np.float32))

    def test_float64_param_has_no_master(self):
        from repro.nn.module import Parameter

        p = Parameter(np.ones(5))
        opt = self._step(p)
        assert "master" not in opt.state["w"]

    def test_masters_avoid_float32_stagnation(self):
        """Updates far below float32 resolution still accumulate.

        With a large weight and a tiny step, ``w + lr*u`` rounds back to
        ``w`` in float32 every time; the float64 master keeps the
        progress and the working copy eventually moves.
        """
        p = _fp32_param(np.full(1, 100.0))
        opt = Adam([("w", p)], lr=1e-7)
        for _ in range(200):
            p.grad = np.ones(1, dtype=np.float32)
            opt.step()
        master = opt.state["w"]["master"]
        assert master[0] != 100.0  # master accumulated every step
        naive = np.float32(100.0)
        assert naive - np.float32(1e-7) == naive  # the naive path stalls

    def test_state_dict_roundtrips_master_losslessly(self):
        p = _fp32_param(np.random.default_rng(0).normal(size=4))
        opt = self._step(p)
        sd = opt.state_dict()
        p2 = _fp32_param(np.zeros(4))
        opt2 = Adam([("w", p2)], lr=1e-2)
        opt2.load_state_dict(sd)
        restored = opt2.state["w"]["master"]
        assert restored.dtype == np.dtype("float64")
        np.testing.assert_array_equal(restored, opt.state["w"]["master"])
        assert opt2.sync_master_params() == 1
        np.testing.assert_array_equal(p2.data, p.data)

    def test_sync_master_upcasts_when_param_back_at_float64(self):
        p = _fp32_param(np.ones(3))
        opt = self._step(p)
        master = opt.state["w"]["master"].copy()
        p.data = p.data.astype(np.float64)  # policy switched back to full
        assert opt.sync_master_params() == 1
        assert p.data.dtype == np.dtype("float64")
        np.testing.assert_array_equal(p.data, master)  # lossless restore


# --------------------------------------------------------------------- #
# float64 bit-identity pin
# --------------------------------------------------------------------- #

# Captured by running the exact computation below and hashing every
# array. First taken from the seed engine (pre-dtype-policy); re-taken
# once when 2-D products became row-invariant, because this GATConv
# (width 6) and GCNConv (width 3) have output widths that now take the
# row-local reduction instead of GEMM (the loss kept its bits). The
# default float64 path must keep reproducing these bytes.
PIN_LOSS_HEX = "0x1.1eebc7c875e1fp+0"
PIN_OUT_DIGEST = "b6cd8f39803def28"
PIN_PARAMS = {
    "att_dst": ("509e00f76a5372ab", "9f69d64fa61c5d3e"),
    "att_edge": ("2c396653b8e242ea", "f211173f45d0404a"),
    "att_src": ("fcff56d0d5383e35", "68bf936ecf96d61e"),
    "bias": ("97640dd61aba5fdf", "58f64fef93893149"),
    "edge_weight": ("5d9ba51da1a48a2e", "7213007f195e65d5"),
    "gcn.bias": ("a84cd63a1eb90ba8", "610fd1694fc16e6d"),
    "gcn.weight": ("9e9b01d752f17799", "4c7c812412044a31"),
    "weight": ("083c58ae1a707743", "1a932bb8d92a595d"),
}


class TestFloat64BitIdentityPin:
    def test_training_step_matches_seed_digests(self):
        rng = np.random.default_rng(1234)
        n, e, fdim, edim = 37, 91, 11, 5
        x = rng.standard_normal((n, fdim))
        edge_index = rng.integers(0, n, size=(2, e))
        edge_attr = rng.standard_normal((e, edim))
        labels = rng.integers(0, 3, size=n)

        gat = GATConv(fdim, 6, heads=2, edge_dim=edim)
        gcn = GCNConv(6, 3)
        params = dict(
            list(gat.named_parameters())
            + [("gcn." + k, v) for k, v in gcn.named_parameters()]
        )
        for name in sorted(params):
            p = params[name]
            p.data = rng.standard_normal(p.data.shape) * 0.1

        opt = Adam(sorted(params.items()), lr=1e-2)
        h = F.elu(gat(Tensor(x), edge_index, edge_attr=edge_attr))
        out = gcn(h, edge_index)
        loss = cross_entropy(out, labels)
        loss.backward()
        opt.step()

        assert float(loss.data).hex() == PIN_LOSS_HEX
        assert digest(out.data) == PIN_OUT_DIGEST
        assert sorted(params) == sorted(PIN_PARAMS)
        for name in sorted(params):
            p = params[name]
            want_data, want_grad = PIN_PARAMS[name]
            assert digest(p.data) == want_data, f"{name}: post-step data drifted"
            assert digest(p.grad) == want_grad, f"{name}: gradient drifted"
