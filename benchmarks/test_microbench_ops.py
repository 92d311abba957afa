"""Performance microbenchmarks of the hot kernels.

Not a paper artifact — these time the inner loops (segment ops, GAT
forward/backward, enclosing-subgraph extraction, the SortPooling readout) with
pytest-benchmark's statistics so performance regressions in the NumPy
kernels are visible.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.datasets import load_primekg_like
from repro.graph import extract_enclosing_subgraphs
from repro.models.layers import GATConv
from repro.models.sort_pool import PooledProjection, SortPooling
from repro.nn.dtype import compute_dtype
from repro.nn.indexing import gather, segment_softmax, segment_sum
from repro.nn.kernels import PlanCache
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor, no_grad
from repro.data import warm


@pytest.fixture(scope="module")
def edge_workload():
    gen = np.random.default_rng(0)
    n, e, f = 2000, 16000, 64
    x = gen.normal(size=(n, f))
    src = gen.integers(0, n, size=e)
    dst = gen.integers(0, n, size=e)
    return x, src, dst, n


def test_segment_sum_throughput(benchmark, edge_workload):
    x, src, dst, n = edge_workload
    msgs = Tensor(x[src])
    out = benchmark(lambda: segment_sum(msgs, dst, n))
    assert out.shape == (n, x.shape[1])


def test_gather_throughput(benchmark, edge_workload):
    x, src, dst, n = edge_workload
    xt = Tensor(x)
    out = benchmark(lambda: gather(xt, src))
    assert out.shape == (len(src), x.shape[1])


def test_segment_softmax_throughput(benchmark, edge_workload):
    _, src, dst, n = edge_workload
    logits = Tensor(np.random.default_rng(1).normal(size=(len(dst), 4)))
    out = benchmark(lambda: segment_softmax(logits, dst, n))
    assert out.shape == (len(dst), 4)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_gat_forward_backward(benchmark, dtype):
    """One GATConv forward+backward at the table3-primekg batch shape:
    16 subgraphs, ~1250 nodes, ~5200 arcs (plus self-loops), 2 heads of
    32 channels, 2-wide one-hot edge attributes."""
    gen = np.random.default_rng(2)
    n, e = 1250, 5200
    ei = gen.integers(0, n, size=(2, e))
    ea = np.eye(2)[gen.integers(0, 2, size=e)]
    x = gen.normal(size=(n, 64))
    w = gen.normal(size=(n, 64))
    with compute_dtype(dtype):
        conv = GATConv(64, 64, heads=2, edge_dim=2, rng=0)
        plans = PlanCache(ei, n)

        def step():
            xt = Tensor(x, requires_grad=True)
            out = conv(xt, ei, ea, plans=plans)
            loss = (out * Tensor(w)).sum()
            loss.backward()
            return float(loss.data)

        loss = benchmark(step)
    assert np.isfinite(loss)


def test_subgraph_extraction_rate(benchmark):
    """One batched extraction sweep over 32 PrimeKG-like pairs."""
    task = load_primekg_like(scale=0.4, num_targets=64, rng=0)

    def extract_all():
        return extract_enclosing_subgraphs(
            task.graph, task.pairs[:32], k=2, mode="intersection", max_nodes=100,
            rng_factory=lambda pos: pos,
        )

    subs = benchmark(extract_all)
    assert subs.num_links == 32


@pytest.mark.parametrize("f,k", [(129, 110), (385, 35)], ids=["am_dgcnn", "vanilla"])
@pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "grad"])
def test_sort_pool_throughput(benchmark, grad, f, k):
    """The fused SortPooling + first-conv readout at the table3-primekg
    batch shape: 16 subgraphs, ~1,217 nodes. Tuned AM-DGCNN (129
    channels, k = 110) keeps every node; tuned vanilla DGCNN (385
    channels, k = 35) keeps fewer rows than there are nodes. Under
    ``no_grad`` (evaluation, serving) it is the forward alone; under
    grad (training) the forward plus its backward."""
    gen = np.random.default_rng(3)
    graphs = 16
    counts = gen.multinomial(1217 - 10 * graphs, gen.dirichlet(np.ones(graphs))) + 10
    batch = np.repeat(np.arange(graphs), counts)
    z_data = np.tanh(gen.normal(size=(int(counts.sum()), f)))
    upstream = Tensor(gen.normal(size=(graphs, 16, k)))
    sort_pool = SortPooling(k)
    conv1 = PooledProjection(f, 16, rng=0)

    def readout():
        z = Tensor(z_data, requires_grad=grad)
        out = conv1(z, sort_pool(z, batch, graphs))
        if grad:
            (out * upstream).sum().backward()
        return out

    with nullcontext() if grad else no_grad():
        out = benchmark(readout)
    assert out.shape == (graphs, 16, k)


def test_store_collate_throughput(benchmark):
    """Block-diagonal collation of 64 cached subgraphs from the packed
    SubgraphStore slices."""
    from repro.data import collate_from_store
    from repro.seal import SEALDataset

    task = load_primekg_like(scale=0.25, num_targets=64, rng=0)
    ds = SEALDataset(task, rng=0)
    warm(ds)
    idx = np.arange(64)
    out = benchmark(
        lambda: collate_from_store(ds.store, idx, edge_attr_dim=task.edge_attr_dim)
    )
    assert out.num_graphs == 64


def test_training_step_cost(benchmark):
    """One full DGCNN training step on a realistic mini-batch."""
    from repro.experiments.config import DEFAULT_HPARAMS, build_model
    from repro.nn.optim import Adam
    from repro.seal import SEALDataset

    task = load_primekg_like(scale=0.25, num_targets=48, rng=0)
    ds = SEALDataset(task, rng=0)
    warm(ds)
    batch, labels = ds.batch(np.arange(16))
    model = build_model(
        "am_dgcnn", ds.feature_width, task.num_classes, task.edge_attr_dim,
        DEFAULT_HPARAMS, rng=0,
    )
    opt = Adam(model.parameters(), lr=1e-3)

    def step():
        opt.zero_grad()
        loss = cross_entropy(model(batch), labels)
        loss.backward()
        opt.step()
        return float(loss.data)

    loss = benchmark(step)
    assert np.isfinite(loss)
