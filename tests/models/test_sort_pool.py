"""SortPooling: ordering, truncation, padding, gradients (on the reference
``oracles.sort_pool``), and the fused readout — ``SortPooling`` rows fed to
``PooledProjection`` — byte-identical to the chain it replaces,
``oracles.sort_pool_readout`` on the reference ops."""

import numpy as np
import pytest

from repro.models.sort_pool import PooledProjection, SortPooling
from repro.nn.dtype import compute_dtype
from repro.nn.kernels import SegmentPlan
from repro.nn.tensor import Tensor, no_grad
from tests import oracles
from tests.gradcheck import gradcheck

sort_pool = oracles.sort_pool


class TestSortPool:
    def test_sorts_descending_by_last_channel(self):
        x = Tensor(np.array([[10.0, 0.1], [20.0, 0.3], [30.0, 0.2]]))
        out = sort_pool(x, np.zeros(3, dtype=int), 1, k=3).data
        np.testing.assert_allclose(out[0, :, 1], [0.3, 0.2, 0.1])
        np.testing.assert_allclose(out[0, :, 0], [20.0, 30.0, 10.0])

    def test_truncates_to_k(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        out = sort_pool(x, np.zeros(4, dtype=int), 1, k=2)
        assert out.shape == (1, 2, 2)
        # Keeps the top-2 by last channel (rows 3 and 2).
        np.testing.assert_allclose(out.data[0, :, 1], [7.0, 5.0])

    def test_pads_small_graphs_with_zeros(self):
        x = Tensor(np.ones((2, 3)))
        out = sort_pool(x, np.zeros(2, dtype=int), 1, k=5).data
        np.testing.assert_allclose(out[0, :2], 1.0)
        np.testing.assert_allclose(out[0, 2:], 0.0)

    def test_batched_graphs_sorted_independently(self):
        x = Tensor(np.array([[1.0], [3.0], [2.0], [9.0], [8.0]]))
        batch = np.array([0, 0, 0, 1, 1])
        out = sort_pool(x, batch, 2, k=2).data
        np.testing.assert_allclose(out[0, :, 0], [3.0, 2.0])
        np.testing.assert_allclose(out[1, :, 0], [9.0, 8.0])

    def test_empty_graph_in_batch_all_padding(self):
        x = Tensor(np.array([[1.0], [2.0]]))
        batch = np.array([0, 0])
        out = sort_pool(x, batch, 2, k=2).data  # graph 1 has zero nodes
        np.testing.assert_allclose(out[1], 0.0)

    def test_gradient_flows_to_retained_rows_only(self):
        x = Tensor(np.array([[1.0, 5.0], [1.0, 1.0], [1.0, 3.0]]), requires_grad=True)
        out = sort_pool(x, np.zeros(3, dtype=int), 1, k=2)
        out.sum().backward()
        # Row 1 (smallest key) was truncated: zero grad.
        np.testing.assert_allclose(x.grad[1], 0.0)
        assert np.abs(x.grad[0]).sum() > 0
        assert np.abs(x.grad[2]).sum() > 0

    def test_gradcheck(self):
        gen = np.random.default_rng(0)
        x = Tensor(gen.normal(size=(6, 3)), requires_grad=True)
        batch = np.array([0, 0, 0, 1, 1, 1])
        gradcheck(lambda a: (sort_pool(a, batch, 2, k=2) ** 2).sum(), [x])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            sort_pool(Tensor(np.ones((2, 2))), np.zeros(2, dtype=int), 1, k=0)

    def test_batch_length_mismatch(self):
        with pytest.raises(ValueError):
            sort_pool(Tensor(np.ones((2, 2))), np.zeros(3, dtype=int), 1, k=1)

    def test_module_wrapper(self):
        # The module returns the rows the reference pools: ties keep node
        # order, and padding slots hold N.
        sp = SortPooling(3)
        rows = sp(Tensor(np.ones((4, 2))), np.zeros(4, dtype=int), 1)
        np.testing.assert_array_equal(rows, [[0, 1, 2]])
        rows = sp(Tensor(np.ones((2, 2))), np.zeros(2, dtype=int), 1)
        np.testing.assert_array_equal(rows, [[0, 1, 2]])
        with pytest.raises(ValueError):
            SortPooling(0)
        with pytest.raises(ValueError):
            sp(Tensor(np.ones((2, 2))), np.zeros(3, dtype=int), 1)


def assert_bytes_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()  # distinguishes -0.0 from +0.0


def chain(z, batch, num_graphs, k, proj):
    """The unfused readout on the reference ops: gather (``np.add.at``
    backward) and mask the block, then convolve it."""
    with oracles.reference_ops():
        return oracles.sort_pool_readout(proj, z, batch, num_graphs, k)


def fused(z, batch, num_graphs, k, proj):
    return proj(z, SortPooling(k)(z, batch, num_graphs))


def readout_inputs(counts, f, seed):
    """Embeddings whose sort keys (last channel) tie, with a share of
    ``+0.0`` / ``-0.0`` entries and a row 0 with negative entries, whose
    masked copy is the padding row; and an upstream gradient with signed
    zeros. Values are not rounded elsewhere, so a reordered sum shows."""
    gen = np.random.default_rng(seed)
    n = int(sum(counts))
    z = gen.normal(size=(n, f))
    z[:, -1] = np.round(z[:, -1] * 2) / 2
    z[gen.random(z.shape) < 0.15] = -0.0
    z[gen.random(z.shape) < 0.05] = 0.0
    z[0, ::2] = -np.abs(z[0, ::2]) - 0.5
    batch = np.repeat(np.arange(len(counts)), counts)
    upstream = gen.normal(size=(len(counts), 16, K))
    upstream[gen.random(upstream.shape) < 0.25] = -0.0
    return z, batch, upstream


K = 5
#: Graph sizes around ``K``: smaller, equal, larger, and empty graphs.
COUNTS = {
    "mixed": [2, 5, 9, 0, 5, 1, 7],
    "all_small": [1, 3, 2, 4],
    "all_large": [6, 8, 12],
    "empty_first": [0, 6, 3],
    "table3_like": [3, 4, 20, 11, 2, 5, 5, 30, 6, 9, 1, 8, 14, 4, 7, 2, 3, 10],
}


#: Compute dtype and parameter dtype: float64 parameters under the float32
#: policy round each product to float32 before the bias add, as the chain does.
DTYPES = {
    "float64": ("float64", "float64"),
    "float32": ("float32", "float32"),
    "float32_float64_params": ("float32", "float64"),
}


@pytest.mark.parametrize("dtype", list(DTYPES))
@pytest.mark.parametrize("bias", ["+0.0", "-0.0", "0.37"])
@pytest.mark.parametrize("counts", list(COUNTS), ids=list(COUNTS))
class TestFusedReadout:
    """Forward, ``no_grad`` forward and the gradients of ``z``, ``W1`` and
    ``b`` are the reference chain's bytes."""

    def run(self, readout, counts, dtype, bias, grad=True):
        compute, params = DTYPES[dtype]
        with compute_dtype(params):
            proj = PooledProjection(24, 16, rng=0)
        proj.bias.data[:] = float(bias)
        if bias == "0.37":
            proj.bias.data[::3] = -1.5  # and non-constant
        with compute_dtype(compute):
            z_data, batch, upstream = readout_inputs(COUNTS[counts], 24, seed=len(COUNTS[counts]))
            z = Tensor(z_data, requires_grad=True)
            num_graphs = len(COUNTS[counts])
            if not grad:
                with no_grad():
                    return (readout(z, batch, num_graphs, K, proj).data,)
            out = readout(z, batch, num_graphs, K, proj)
            (out * Tensor(upstream)).sum().backward()
            return out.data, z.grad, proj.weight.grad, proj.bias.grad

    def test_forward_and_gradients(self, counts, dtype, bias):
        got = self.run(fused, counts, dtype, bias)
        want = self.run(chain, counts, dtype, bias)
        assert got[0].dtype == np.dtype(DTYPES[dtype][0])
        for a, b in zip(got, want):
            assert_bytes_equal(a, b)

    def test_no_grad_forward(self, counts, dtype, bias):
        (got,) = self.run(fused, counts, dtype, bias, grad=False)
        (want,) = self.run(chain, counts, dtype, bias, grad=False)
        assert_bytes_equal(got, want)
        assert_bytes_equal(got, self.run(fused, counts, dtype, bias)[0])


class TestFusedReadoutEdges:
    @pytest.mark.parametrize("channels", [4, 16])  # row-by-row and GEMM products
    def test_negative_first_row_pads_like_the_chain(self, channels):
        # Padding reads z[0]·0, all -0.0 here, projected with a -0.0 bias.
        z = Tensor(np.array([[-1.0, -2.0], [3.0, 1.0]]))
        batch = np.zeros(2, dtype=int)
        proj = PooledProjection(2, channels, rng=0)
        proj.bias.data[:] = -0.0
        assert_bytes_equal(fused(z, batch, 1, 3, proj).data, chain(z, batch, 1, 3, proj).data)

    def test_nan_first_row_pads_with_nan(self):
        # z[0]·0 is NaN where z[0] is: padding is the masked row, not zeros.
        z = Tensor(np.array([[np.nan, -2.0], [3.0, 1.0], [0.5, 4.0]]))
        batch = np.array([0, 0, 1])
        proj = PooledProjection(2, 16, rng=0)
        out = fused(z, batch, 2, 3, proj).data
        assert_bytes_equal(out, chain(z, batch, 2, 3, proj).data)
        assert np.isnan(out[1, :, 1:]).all()

    def test_all_negative_zero_gradient_rows(self):
        # Slots whose whole upstream gradient is -0.0, through a positive
        # weight: where g @ W.T reads -0.0 (BLAS-dependent), the chain's
        # zero-filled im2col adjoint turns it into +0.0 before it reaches
        # the nodes, and so must the fused backward.
        gen = np.random.default_rng(5)
        z = Tensor(gen.normal(size=(7, 3)), requires_grad=True)
        batch = np.array([0, 0, 0, 0, 1, 1, 1])
        proj = PooledProjection(3, 16, rng=0)
        proj.weight.data[:] = np.abs(proj.weight.data) + 0.1
        upstream = gen.normal(size=(2, 16, 3))
        upstream[0] = -0.0
        upstream[1, :, 1] = -0.0
        grads = []
        for readout in (fused, chain):
            z.grad = None
            (readout(z, batch, 2, 3, proj) * Tensor(upstream)).sum().backward()
            grads.append(z.grad)
        assert_bytes_equal(*grads)

    def test_planned_equals_unplanned(self):
        batch = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        z = Tensor(np.random.default_rng(32).normal(size=(9, 4)))
        sp = SortPooling(3)
        np.testing.assert_array_equal(
            sp(z, batch, 3, plan=SegmentPlan(batch, 3)), sp(z, batch, 3)
        )

    def test_gradcheck(self):
        gen = np.random.default_rng(0)
        z = Tensor(gen.normal(size=(9, 4)), requires_grad=True)
        batch = np.array([0, 0, 0, 0, 1, 1, 3, 3, 3])  # graph 2 is empty
        proj = PooledProjection(4, 16, rng=1)
        proj.bias.data[:] = gen.normal(size=16)
        gradcheck(
            lambda a, w, b: (fused(a, batch, 4, 3, proj) ** 2).sum(),
            [z, proj.weight, proj.bias],
        )
