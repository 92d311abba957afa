"""Autograd core: construction, arithmetic, broadcasting, backward."""

import gc
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.models.layers import GATConv
from tests import oracles
from repro.nn.losses import cross_entropy
from repro.nn.tensor import (
    Tensor,
    as_tensor,
    concatenate,
    no_grad,
    stack,
)
from tests.gradcheck import gradcheck


def is_grad_enabled():
    """Whether an op in this thread records onto the tape, seen from outside."""
    return (Tensor([1.0], requires_grad=True) * 1.0).requires_grad


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def _gat_step(seed=0, n=13, e=40):
    """One forward+backward of a fresh GATConv; returns the layer."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    ei = rng.integers(0, n, size=(2, e))
    ea = rng.normal(size=(e, 3))
    labels = rng.integers(0, 4, size=n)
    layer = GATConv(4, 4, heads=2, edge_dim=3, rng=5)
    cross_entropy(layer(Tensor(x), ei, edge_attr=ea), labels).backward()
    return layer


class TestConstruction:
    def test_float_data_becomes_float64(self):
        t = Tensor(np.array([1.0, 2.0], dtype=np.float32))
        assert t.dtype == np.float64

    def test_int_data_preserved(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "i"

    def test_int_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2]), requires_grad=True)

    def test_from_list(self):
        t = Tensor([[1.0, 2.0]])
        assert t.shape == (1, 2)

    def test_as_tensor_idempotent(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_item_and_len(self):
        assert Tensor([[3.5]]).item() == 3.5
        assert len(Tensor([1.0, 2.0, 3.0])) == 3


class TestBackwardMechanics:
    def test_scalar_backward_default_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_nonscalar_backward_requires_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()
        y.backward(np.array([1.0, 1.0]))
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_grad_accumulates_over_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_diamond_graph_accumulates(self):
        # y = x*x used twice: dz/dx = 2*2x = 4x at x=3 -> 12... z = y + y
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_grad_disables_tape(self):
        x = Tensor([1.0], requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise ValueError
        except ValueError:
            pass
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        # A enters, B enters, A exits, B exits: with one process-wide
        # flag, B's exit restores the False it saw on entry.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with no_grad():
                a_in.set()
                b_in.wait(5)
            a_out.set()

        def thread_b():
            a_in.wait(5)
            with no_grad():
                b_in.set()
                a_out.wait(5)
                seen["inside"] = is_grad_enabled()

        workers = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(10)
        assert a_out.is_set() and seen == {"inside": False}
        assert is_grad_enabled()
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_later_backward_leaves_earlier_leaf_grads_unchanged(self):
        layer = _gat_step(seed=0)
        grads = {k: p.grad for k, p in layer.named_parameters()}
        frozen = {k: g.copy() for k, g in grads.items()}
        _gat_step(seed=1)
        for name in frozen:
            np.testing.assert_array_equal(grads[name], frozen[name], err_msg=name)

    def test_backward_keeps_no_memory_between_batch_shapes(self):
        # Every SEAL batch has its own (N, E); nothing the backward
        # allocates for one shape may outlive it.
        tracemalloc.start()
        try:
            _gat_step(seed=0)
            gc.collect()
            baseline = tracemalloc.get_traced_memory()[0]
            shapes = [(60, 240), (90, 380), (45, 170), (120, 500)]
            for seed, (n, e) in enumerate(shapes, 1):
                _gat_step(seed=seed, n=n, e=e)
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - baseline
                assert grown < 8 * 1024, f"(N, E) = {(n, e)}: +{grown} bytes"
        finally:
            tracemalloc.stop()


class TestArithmeticGradients:
    def test_add_broadcast(self):
        a = Tensor(randn(3, 4), requires_grad=True)
        b = Tensor(randn(4), requires_grad=True)
        gradcheck(lambda x, y: (x + y).sum(), [a, b])

    def test_sub_and_rsub(self):
        a = Tensor(randn(2, 3), requires_grad=True)
        gradcheck(lambda x: (5.0 - x).sum(), [a])
        gradcheck(lambda x: (x - 2.0).sum(), [a])

    def test_mul_broadcast(self):
        a = Tensor(randn(3, 1), requires_grad=True)
        b = Tensor(randn(1, 4), requires_grad=True)
        gradcheck(lambda x, y: (x * y).sum(), [a, b])

    def test_div(self):
        a = Tensor(randn(3, 3) + 3.0, requires_grad=True)
        b = Tensor(randn(3, 3) + 3.0, requires_grad=True)
        gradcheck(lambda x, y: (x / y).sum(), [a, b])

    def test_rtruediv(self):
        a = Tensor(np.abs(randn(4)) + 1.0, requires_grad=True)
        gradcheck(lambda x: (2.0 / x).sum(), [a])

    def test_neg_pow(self):
        a = Tensor(np.abs(randn(3)) + 0.5, requires_grad=True)
        gradcheck(lambda x: (-(x**3)).sum(), [a])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(randn(3, 4), requires_grad=True)
        b = Tensor(randn(4, 2), requires_grad=True)
        gradcheck(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_vec_mat(self):
        a = Tensor(randn(4), requires_grad=True)
        b = Tensor(randn(4, 2), requires_grad=True)
        gradcheck(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_mat_vec(self):
        a = Tensor(randn(3, 4), requires_grad=True)
        b = Tensor(randn(4), requires_grad=True)
        gradcheck(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_vec_vec(self):
        a = Tensor(randn(4), requires_grad=True)
        b = Tensor(randn(4, seed=1), requires_grad=True)
        gradcheck(lambda x, y: (x @ y), [a, b])

    def test_matmul_batched(self):
        a = Tensor(randn(2, 3, 4), requires_grad=True)
        b = Tensor(randn(2, 4, 2), requires_grad=True)
        gradcheck(lambda x, y: (x @ y).sum(), [a, b])


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: (x * x).log().sum(),
            lambda x: x.tanh().sum(),
            lambda x: (0.5 * (0.5 * x).tanh() + 0.5).sum(),  # sigmoid
            lambda x: ((x * x) ** 0.5).sum(),
            lambda x: oracles.leaky_relu(x, 0.1).sum(),
        ],
    )
    def test_unary(self, fn):
        x = Tensor(randn(3, 4) + 2.0, requires_grad=True)
        gradcheck(fn, [x])

    def test_log(self):
        x = Tensor(np.abs(randn(5)) + 1.0, requires_grad=True)
        gradcheck(lambda a: a.log().sum(), [x])

    def test_relu_at_positive_and_negative(self):
        x = Tensor(np.array([-2.0, 3.0, -0.5, 1.5]), requires_grad=True)
        gradcheck(lambda a: a.relu().sum(), [x])


class TestReductions:
    def test_sum_axis_keepdims(self):
        # Tensor.sum drops the axis; a kept-dims sum is a reshape of it.
        x = Tensor(randn(3, 4), requires_grad=True)
        gradcheck(lambda a: (a.sum(axis=0).reshape(1, 4) ** 2).sum(), [x])
        gradcheck(lambda a: (a.sum(axis=1) ** 2).sum(), [x])

    def test_mean(self):
        x = Tensor(randn(3, 4), requires_grad=True)
        gradcheck(lambda a: (a.mean(axis=1) ** 2).sum(), [x])
        np.testing.assert_allclose(x.mean().item(), x.data.mean())

    def test_max_global_and_axis(self):
        # Tensor.max reduces every axis; one row's max goes through getitem.
        x = Tensor(randn(3, 4), requires_grad=True)
        gradcheck(lambda a: a.max(), [x])
        gradcheck(lambda a: a[1].max() ** 2, [x])

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])

    def test_min(self):
        x = Tensor(randn(3, 4), requires_grad=True)
        assert x.min().item() == pytest.approx(x.data.min())


class TestShapeOps:
    def test_reshape_transpose(self):
        x = Tensor(randn(3, 4), requires_grad=True)
        gradcheck(lambda a: (a.reshape(2, 6) ** 2).sum(), [x])
        gradcheck(lambda a: (a.T ** 2).sum(), [x])

    def test_transpose_axes(self):
        x = Tensor(randn(2, 3, 4), requires_grad=True)
        gradcheck(lambda a: (a.transpose((2, 0, 1)) ** 2).sum(), [x])

    def test_squeeze_expand(self):
        x = Tensor(randn(3, 1, 4), requires_grad=True)
        gradcheck(lambda a: (a.reshape(3, 4) ** 2).sum(), [x])  # drop the unit axis
        gradcheck(lambda a: (a.reshape(1, 3, 1, 4) ** 2).sum(), [x])  # add one

    def test_getitem(self):
        x = Tensor(randn(5, 3), requires_grad=True)
        gradcheck(lambda a: (a[np.array([0, 2, 2])] ** 2).sum(), [x])

    def test_getitem_duplicate_indices_accumulate(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x[np.array([1, 1])].sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 2.0, 0.0])


class TestCombinators:
    def test_concatenate(self):
        a = Tensor(randn(2, 3), requires_grad=True)
        b = Tensor(randn(2, 2), requires_grad=True)
        gradcheck(lambda x, y: (concatenate([x, y], axis=1) ** 2).sum(), [a, b])

    def test_stack(self):
        a = Tensor(randn(2, 3), requires_grad=True)
        b = Tensor(randn(2, 3, seed=1), requires_grad=True)
        gradcheck(lambda x, y: (stack([x, y]) ** 2).sum(), [a, b])


class TestHypothesisProperties:
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, max_side=4),
            elements=st.floats(-10, 10),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_add_neg_is_zero(self, data):
        x = Tensor(data, requires_grad=True)
        out = (x + (-x)).sum()
        assert abs(out.item()) < 1e-9

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(-5, 5),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_sum_matches_numpy(self, data):
        assert Tensor(data).sum().item() == pytest.approx(data.sum(), abs=1e-9)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_matmul_grad_shape(self, n, m):
        a = Tensor(randn(n, m), requires_grad=True)
        b = Tensor(randn(m, 2), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (n, m)
        assert b.grad.shape == (m, 2)
