"""The fused GAT edge pass: bit-identity with the op chain it replaces
(``tests/oracles.py::gat_edge_pass``, float64 and float32), one tape
node, partial ``requires_grad``, no-grad forwards and a gradcheck."""

from itertools import combinations

import numpy as np
import pytest

from repro.models.layers import GATConv
from repro.nn.attention import gat_edge_pass
from repro.nn.dtype import compute_dtype
from tests.gradcheck import gradcheck
from repro.nn.kernels import PlanCache, SegmentPlan
from repro.nn.tensor import Tensor, no_grad
from tests import oracles

N = 7


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def edge_list(loops: bool) -> np.ndarray:
    """Unsorted arcs with duplicates; nodes 3 and 5 receive none, so
    without self-loops their softmax segments are empty."""
    ei = np.array(
        [[0, 1, 2, 2, 4, 6, 6, 1, 0, 3, 5, 2], [1, 0, 4, 1, 6, 0, 2, 1, 4, 2, 1, 6]]
    )
    return PlanCache(ei, N).loop_edge_index() if loops else ei


#: (heads, channels, edge_dim, edge_in_message, loops)
CASES = {
    "gat": (1, 3, 0, True, True),
    "edge-attrs": (2, 3, 2, True, True),
    "attention-only-edges": (2, 3, 2, False, True),
    "no-loops": (2, 2, 2, True, False),
    "no-loops-no-edges": (1, 2, 0, True, False),
    "sort-key-width-1": (1, 1, 2, True, True),
}

NAMES = ("h", "att_src", "att_dst", "he", "att_edge")


def make_inputs(case, seed=0):
    heads, channels, edge_dim, edge_in_message, loops = case
    ei = edge_list(loops)
    arrays = {
        "h": randn(N, heads * channels, seed=seed),
        "att_src": randn(1, heads, channels, seed=seed + 1),
        "att_dst": randn(1, heads, channels, seed=seed + 2),
    }
    if edge_dim:
        arrays["he"] = randn(ei.shape[1], heads * channels, seed=seed + 3)
        arrays["att_edge"] = randn(1, heads, channels, seed=seed + 4)
    return ei, edge_in_message, arrays


def call(op, ei, edge_in_message, tensors):
    return op(
        tensors["h"],
        tensors["att_src"],
        tensors["att_dst"],
        ei,
        src_plan=SegmentPlan(ei[0], N),
        dst_plan=SegmentPlan(ei[1], N),
        he=tensors.get("he"),
        att_edge=tensors.get("att_edge"),
        edge_in_message=edge_in_message,
    )


def run(op, case, requires=NAMES, dtype="float64"):
    """Output and the gradient of every input in ``requires``."""
    ei, edge_in_message, arrays = make_inputs(case)
    with compute_dtype(dtype):
        tensors = {k: Tensor(v, requires_grad=k in requires) for k, v in arrays.items()}
        out = call(op, ei, edge_in_message, tensors)
        if out.requires_grad:
            (out * Tensor(randn(*out.shape, seed=9))).sum().backward()
    return out.data, {k: t.grad for k, t in tensors.items()}


def assert_runs_equal(a, b):
    (out_a, grads_a), (out_b, grads_b) = a, b
    assert out_a.dtype == out_b.dtype
    np.testing.assert_array_equal(out_a, out_b)
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        if grads_b[name] is None:
            assert grads_a[name] is None, name
        else:
            assert grads_a[name].dtype == grads_b[name].dtype, name
            np.testing.assert_array_equal(grads_a[name], grads_b[name], err_msg=name)


def tape_nodes(out: Tensor) -> list:
    """Op names of every recorded node reachable from ``out``."""
    seen, stack, ops = set(), [out], []
    while stack:
        t = stack.pop()
        if id(t) in seen or not t._parents:
            continue
        seen.add(id(t))
        ops.append(t._op)
        stack.extend(t._parents)
    return ops


class TestBitIdentity:
    """Fused op == the unfused op chain on the np.add.at oracles, bitwise."""

    DTYPE = "float64"

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_forward_and_all_gradients(self, case):
        assert_runs_equal(
            run(gat_edge_pass, case, dtype=self.DTYPE),
            run(oracles.gat_edge_pass, case, dtype=self.DTYPE),
        )

    @pytest.mark.parametrize("requires", [
        subset for k in (0, 1, 2, 4) for subset in combinations(NAMES, k)
    ])
    def test_parents_without_grad(self, requires):
        case = CASES["edge-attrs"]
        fused = run(gat_edge_pass, case, requires, dtype=self.DTYPE)
        assert_runs_equal(fused, run(oracles.gat_edge_pass, case, requires, dtype=self.DTYPE))
        for name, grad in fused[1].items():
            assert (grad is not None) == (name in requires), name

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_no_grad_forward(self, case):
        ei, edge_in_message, arrays = make_inputs(case)
        with compute_dtype(self.DTYPE):
            tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
            with no_grad():
                out = call(gat_edge_pass, ei, edge_in_message, tensors)
            reference = call(oracles.gat_edge_pass, ei, edge_in_message, tensors)
        assert not out.requires_grad and out._parents == ()
        np.testing.assert_array_equal(out.data, reference.data)

    @pytest.mark.parametrize(
        "heads,out_dim,edge_dim,edge_in_message,input_loops",
        [(2, 4, 3, True, True), (2, 4, 3, False, False), (1, 4, 0, True, True), (1, 1, 2, True, True)],
    )
    def test_gat_conv_layer(self, heads, out_dim, edge_dim, edge_in_message, input_loops):
        # The layer appends one loop per node whether or not the input has its own.
        ei = edge_list(loops=input_loops)
        x = randn(N, 5, seed=21)
        attr = randn(ei.shape[1], edge_dim, seed=22) if edge_dim else None

        def layer_run():
            with compute_dtype(self.DTYPE):
                conv = GATConv(
                    5, out_dim, heads=heads, edge_dim=edge_dim,
                    edge_in_message=edge_in_message, rng=0,
                )
                xt = Tensor(x, requires_grad=True)
                out = conv(xt, ei, None if attr is None else attr.astype(self.DTYPE))
                (out * Tensor(randn(*out.shape, seed=23))).sum().backward()
                grads = {name: p.grad for name, p in conv.named_parameters()}
                grads["x"] = xt.grad
                return out.data, grads

        fused = layer_run()
        with oracles.reference_ops():
            reference = layer_run()
        assert_runs_equal(fused, reference)


class TestBitIdentityFloat32(TestBitIdentity):
    """The same contract under the float32 compute policy."""

    DTYPE = "float32"


class TestTape:
    def test_layer_records_one_edge_pass_node(self):
        conv = GATConv(5, 4, heads=2, edge_dim=3, rng=0)
        ei = edge_list(loops=False)
        out = conv(Tensor(randn(N, 5, seed=1), requires_grad=True), ei, randn(ei.shape[1], 3))
        # x @ W, attr @ W_e, the edge pass and the bias: nothing else.
        assert sorted(tape_nodes(out)) == ["add", "gat_edge_pass", "matmul", "matmul"]

    def test_repeated_backward_recomputes(self):
        ei, edge_in_message, arrays = make_inputs(CASES["edge-attrs"])
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        out = call(gat_edge_pass, ei, edge_in_message, tensors).sum()
        out.backward()
        first = {k: t.grad.copy() for k, t in tensors.items()}
        out.backward()
        for k, t in tensors.items():
            np.testing.assert_array_equal(t.grad, first[k] + first[k], err_msg=k)


class TestGradcheck:
    @pytest.mark.parametrize("case", [CASES["edge-attrs"], CASES["no-loops"]], ids=["loops", "no-loops"])
    def test_finite_differences(self, case):
        ei, edge_in_message, arrays = make_inputs(case, seed=5)
        tensors = [Tensor(arrays[k], requires_grad=True) for k in NAMES]
        w = Tensor(randn(N, arrays["h"].shape[1], seed=6))

        def loss(*inputs):
            out = call(gat_edge_pass, ei, edge_in_message, dict(zip(NAMES, inputs)))
            return (out * w).sum()

        gradcheck(loss, tensors)
