"""Conv1d / MaxPool1d: values vs naive reference, gradients, geometry, the
window-view forwards vs the gather oracles, and the scatter-free backward
vs the ``np.add.at`` oracles."""

import numpy as np
import pytest

from repro.nn.conv import Conv1d, MaxPool1d
from repro.nn.dtype import compute_dtype
from tests.gradcheck import gradcheck
from repro.nn.tensor import Tensor
from tests import oracles


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def naive_conv1d(x, w, b, kernel, stride):
    """Reference loop implementation; w is (C_in*K, C_out)."""
    batch, c_in, length = x.shape
    c_out = w.shape[1]
    l_out = (length - kernel) // stride + 1
    out = np.zeros((batch, c_out, l_out))
    for bi in range(batch):
        for t in range(l_out):
            window = x[bi, :, t * stride : t * stride + kernel].reshape(-1)
            out[bi, :, t] = window @ w + b
    return out


class TestConv1d:
    def test_matches_naive(self):
        conv = Conv1d(3, 5, kernel_size=4, stride=2, rng=0)
        x = randn(2, 3, 10)
        out = conv(Tensor(x)).data
        ref = naive_conv1d(x, conv.weight.data, conv.bias.data, 4, 2)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_kernel_equals_stride_projection(self):
        # DGCNN's first conv: kernel = stride = feature width acts per node.
        conv = Conv1d(1, 4, kernel_size=3, stride=3, rng=0)
        x = randn(1, 1, 9)
        out = conv(Tensor(x)).data
        assert out.shape == (1, 4, 3)
        # Each output position depends only on its own window.
        x2 = x.copy()
        x2[0, 0, 3:6] += 1.0
        out2 = conv(Tensor(x2)).data
        np.testing.assert_allclose(out[:, :, 0], out2[:, :, 0])
        np.testing.assert_allclose(out[:, :, 2], out2[:, :, 2])
        assert not np.allclose(out[:, :, 1], out2[:, :, 1])

    def test_gradients(self):
        conv = Conv1d(2, 3, kernel_size=3, stride=2, rng=0)
        x = Tensor(randn(2, 2, 9), requires_grad=True)
        gradcheck(lambda a, w, b: (conv(a) ** 2).sum(), [x, conv.weight, conv.bias])

    def test_out_length(self):
        conv = Conv1d(1, 1, kernel_size=5, stride=1, rng=0)
        assert conv.out_length(10) == 6

    def test_kernel_too_large_raises(self):
        conv = Conv1d(1, 1, kernel_size=5, stride=1, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(randn(1, 1, 3)))

    def test_wrong_channels_raises(self):
        conv = Conv1d(2, 1, kernel_size=2, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(randn(1, 3, 5)))

    def test_requires_3d(self):
        conv = Conv1d(1, 1, kernel_size=1, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(randn(4, 4)))


class TestMaxPool1d:
    def test_values(self):
        pool = MaxPool1d(2)
        x = np.array([[[1.0, 3.0, 2.0, 5.0, 4.0]]])
        out = pool(Tensor(x)).data
        np.testing.assert_allclose(out, [[[3.0, 5.0]]])  # remainder dropped

    def test_stride_defaults_to_kernel(self):
        # Windows tile the input without overlap: one output per kernel span.
        x = np.arange(9.0).reshape(1, 1, 9)
        np.testing.assert_array_equal(MaxPool1d(3)(Tensor(x)).data, [[[2.0, 5.0, 8.0]]])

    def test_gradient_routes_to_argmax(self):
        pool = MaxPool1d(2)
        x = Tensor(np.array([[[1.0, 3.0, 5.0, 2.0]]]), requires_grad=True)
        pool(x).sum().backward()
        np.testing.assert_allclose(x.grad, [[[0.0, 1.0, 1.0, 0.0]]])

    def test_gradcheck(self):
        pool = MaxPool1d(2)
        x = Tensor(randn(2, 3, 8), requires_grad=True)
        gradcheck(lambda a: (pool(a) ** 2).sum(), [x])

    def test_out_length(self):
        assert MaxPool1d(2).out_length(9) == 4

    @pytest.mark.parametrize("kernel", [0, -1])
    def test_nonpositive_geometry_raises(self, kernel):
        with pytest.raises(ValueError):
            MaxPool1d(kernel)

    def test_kernel_too_large_raises(self):
        with pytest.raises(ValueError, match="does not fit input length 3"):
            MaxPool1d(4)(Tensor(randn(1, 1, 3)))

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            MaxPool1d(2)(Tensor(randn(3, 3)))


def signed_zeros(arr, seed):
    """``arr`` with a quarter of its entries replaced by ``+0.0`` / ``-0.0``."""
    gen = np.random.default_rng(seed)
    arr = arr.copy()
    arr[gen.random(arr.shape) < 0.25] = np.where(gen.random() < 0.5, 0.0, -0.0)
    arr.flat[::7] = -0.0
    return arr


def assert_bytes_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()  # distinguishes -0.0 from +0.0


#: (kernel, stride, length): overlapping, non-overlapping (DGCNN's conv1
#: and pool), stride > kernel, and uncovered tails.
GEOMETRIES = [
    (5, 1, 12), (6, 2, 15), (4, 2, 11), (3, 3, 9), (3, 3, 11), (2, 5, 13), (1, 1, 4), (2, 2, 8)
]


def window_inputs(kind, shape, seed):
    """Rounded normals, so windows tie. ``"signed_zeros"`` turns the
    positives into a mix of ``+0.0`` and ``-0.0`` (many windows then peak
    at a signed-zero tie); ``"nan"`` also sets a sixth of the entries to
    NaN of either sign, so which NaN a window keeps shows in its bytes."""
    gen = np.random.default_rng(seed)
    x = np.round(gen.normal(size=shape))
    if kind in ("signed_zeros", "nan"):
        x = np.where(x > 0, np.where(gen.random(shape) < 0.5, 0.0, -0.0), x)
    if kind == "nan":
        nans = np.where(gen.random(shape) < 0.5, np.nan, -np.nan)
        x = np.where(gen.random(shape) < 1 / 6, nans, x)
    return x


@pytest.mark.parametrize("kind", ["ties", "signed_zeros", "nan"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kernel,stride,length", GEOMETRIES)
class TestWindowViewForward:
    """The strided-view forwards are byte-identical to the gather forwards
    in ``tests/oracles.py``: outputs and input/weight/bias gradients."""

    # One input channel takes the copy-free im2col when kernel == stride;
    # 16 output channels take the GEMM product, 4 the row-by-row one.
    @pytest.mark.parametrize("c_in,c_out", [(1, 16), (3, 4)])
    def test_conv1d(self, kernel, stride, length, dtype, kind, c_in, c_out):
        with compute_dtype(dtype):
            conv = Conv1d(c_in, c_out, kernel_size=kernel, stride=stride, rng=0)
            x_data = window_inputs(kind, (2, c_in, length), seed=length)
            w = signed_zeros(randn(2, c_out, conv.out_length(length), seed=1), seed=2)

            def run(forward):
                conv.zero_grad()
                x = Tensor(x_data, requires_grad=True)
                out = forward(x)
                (out * Tensor(w)).sum().backward()
                return out.data, x.grad, conv.weight.grad, conv.bias.grad

            for got, want in zip(run(conv), run(lambda x: oracles.conv1d(conv, x))):
                assert_bytes_equal(got, want)

    def test_maxpool1d(self, kernel, stride, length, dtype, kind):
        # The pool's windows never overlap: its stride is its kernel.
        with compute_dtype(dtype):
            pool = MaxPool1d(kernel)
            x = Tensor(window_inputs(kind, (2, 3, length), seed=length), requires_grad=True)
            out = pool(x)
            assert_bytes_equal(out.data, oracles.maxpool1d(x.data, kernel, kernel))
            g = signed_zeros(randn(*out.shape, seed=3), seed=4).astype(dtype)
            out.backward(g)
            assert_bytes_equal(x.grad, oracles.maxpool1d_grad(x.data, g, kernel, kernel))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kernel,stride,length", GEOMETRIES)
class TestScatterFreeBackward:
    """The strided col2im is byte-identical to the ``np.add.at`` scatters
    in ``tests/oracles.py``, signed zeros included."""

    def test_col2im(self, kernel, stride, length, dtype):
        from repro.nn.conv import _col2im

        l_out = (length - kernel) // stride + 1
        windows = signed_zeros(randn(2, 3, l_out, kernel, seed=kernel), seed=stride)
        windows = windows.astype(dtype)
        assert_bytes_equal(
            _col2im(windows, length, stride, windows.dtype),
            oracles.col2im(windows, length, stride, windows.dtype),
        )

    def test_conv1d_input_grad(self, kernel, stride, length, dtype, monkeypatch):
        from repro.nn import conv as conv_mod

        with compute_dtype(dtype):
            conv = Conv1d(3, 4, kernel_size=kernel, stride=stride, rng=0)
            x_data = randn(2, 3, length, seed=length)
            w = signed_zeros(randn(2, 4, conv.out_length(length), seed=1), seed=2)

            def input_grad():
                x = Tensor(x_data, requires_grad=True)
                (conv(x) * Tensor(w)).sum().backward()
                return x.grad

            planned = input_grad()
            monkeypatch.setattr(conv_mod, "_col2im", oracles.col2im)
            assert_bytes_equal(planned, input_grad())

    def test_maxpool1d_input_grad(self, kernel, stride, length, dtype):
        with compute_dtype(dtype):
            pool = MaxPool1d(kernel)
            # Rounded values force ties within a window.
            x = Tensor(np.round(randn(2, 3, length, seed=length)), requires_grad=True)
            g = signed_zeros(randn(2, 3, pool.out_length(length), seed=3), seed=4)
            g = g.astype(dtype)
            pool(x).backward(g)
            assert_bytes_equal(x.grad, oracles.maxpool1d_grad(x.data, g, kernel, kernel))
