"""Segment-kernel engine: plan invariants, bit-identity vs the np.add.at
oracles in ``tests/oracles.py`` (forward AND backward, float64 and
float32), gradchecks on the planned paths, and the plan caches."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro import obs
from repro.nn.dtype import compute_dtype
from tests.gradcheck import gradcheck
from repro.nn.indexing import (
    gather,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn.kernels import PlanCache, SegmentPlan
from repro.nn.tensor import Tensor, no_grad
from tests import oracles


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


# Index fixtures covering the tricky structures: empty segments (1, 4),
# single-edge segments (3), duplicated rows, and unsorted order.
IDX = np.array([2, 0, 2, 5, 0, 3, 5, 5])
NSEG = 6


#: name -> (library op, np.add.at reference op)
SEGMENT_OPS = {
    "sum": (segment_sum, oracles.segment_sum),
    "softmax": (segment_softmax, oracles.segment_softmax),
    "mean": (segment_mean, oracles.segment_mean),
}


def backward_grad(op, x, *, plan, seed=9):
    """Bitwise-comparable input gradient of `sum(op(...) * w)`."""
    x.grad = None
    out = op(x, plan=plan)
    w = randn(*out.shape, seed=seed)
    (out * Tensor(w)).sum().backward()
    return x.grad


class TestSegmentPlanInvariants:
    def test_counts_indptr_order_starts(self):
        plan = SegmentPlan(IDX, NSEG)
        np.testing.assert_array_equal(plan.counts, np.bincount(IDX, minlength=NSEG))
        np.testing.assert_array_equal(plan.indptr, [0, 2, 2, 4, 5, 5, 8])
        # Stable argsort: within each segment, rows keep original order.
        np.testing.assert_array_equal(plan.order, [1, 4, 0, 2, 5, 3, 6, 7])
        np.testing.assert_array_equal(plan.empty, [False, True, False, False, True, False])
        np.testing.assert_array_equal(plan.starts, [0, 2, 4, 5])

    def test_presorted_index_skips_argsort(self):
        idx = np.array([0, 0, 1, 3, 3])
        plan = SegmentPlan(idx, 4)
        assert plan.is_sorted
        np.testing.assert_array_equal(plan.order, np.arange(5))

    def test_rejects_bad_indices(self):
        with pytest.raises(TypeError):
            SegmentPlan(np.array([0.5]), 2)
        with pytest.raises(ValueError):
            SegmentPlan(np.array([[0], [1]]), 2)
        with pytest.raises(ValueError):
            SegmentPlan(np.array([0, 7]), 3)

    def test_check_rejects_mismatched_shapes(self):
        plan = SegmentPlan(IDX, NSEG)
        with pytest.raises(ValueError):
            plan.check(IDX[:-1], NSEG)
        with pytest.raises(ValueError):
            plan.check(IDX, NSEG + 1)
        plan.check(IDX, NSEG)  # matching contract passes

    def test_empty_index(self):
        plan = SegmentPlan(np.array([], dtype=np.int64), 3)
        np.testing.assert_array_equal(plan.segment_sum(np.empty((0, 2))), np.zeros((3, 2)))
        assert plan.empty.all()


class TestBitIdentityForward:
    """Planned kernels must produce the exact same floats as np.add.at —
    with a caller-supplied plan and with the one-shot plan an op builds."""

    DTYPE = "float64"

    def check(self, op, ref, data, index, num_segments, **kw):
        with compute_dtype(self.DTYPE):
            x = Tensor(data)
            oracle = ref(x, index, num_segments, **kw).data
            assert oracle.dtype == np.dtype(self.DTYPE)
            for plan in (SegmentPlan(index, num_segments), None):
                planned = op(x, index, num_segments, plan=plan, **kw).data
                np.testing.assert_array_equal(planned, oracle)

    @pytest.mark.parametrize("tail", [(), (1,), (7,), (2, 3)])
    def test_segment_sum(self, tail):
        self.check(segment_sum, oracles.segment_sum, randn(len(IDX), *tail, seed=3), IDX, NSEG)

    @pytest.mark.parametrize("tail", [(), (3,)])
    def test_segment_softmax(self, tail):
        x = randn(len(IDX), *tail, seed=5)
        self.check(segment_softmax, oracles.segment_softmax, x, IDX, NSEG)

    def test_segment_mean(self):
        self.check(segment_mean, oracles.segment_mean, randn(len(IDX), 3, seed=6), IDX, NSEG)

    def test_single_edge_segments_only(self):
        idx = np.array([2, 0, 1])
        with compute_dtype(self.DTYPE):
            planned = segment_softmax(Tensor(randn(3, 2, seed=7)), idx, 3).data
        np.testing.assert_array_equal(planned, np.ones((3, 2)))


class TestBitIdentityForwardFloat32(TestBitIdentityForward):
    """The same contract under the float32 compute policy."""

    DTYPE = "float32"


class TestBitIdentityBackward:
    """The planned VJPs must match the np.add.at VJPs bit for bit."""

    DTYPE = "float64"

    def grads(self, op, ref, data, index, num_segments):
        """Input gradients through the oracle, the planned op and the
        planned op on its own one-shot plan."""
        out = []
        with compute_dtype(self.DTYPE):
            for fn, plan in ((ref, None), (op, SegmentPlan(index, num_segments)), (op, None)):
                x = Tensor(data.copy(), requires_grad=True)
                out.append(backward_grad(fn, x, plan=plan))
        assert out[0].dtype == np.dtype(self.DTYPE)
        return out

    @pytest.mark.parametrize("tail", [(), (7,), (2, 3)])
    def test_gather_backward(self, tail):
        oracle, *planned = self.grads(
            lambda x, plan: gather(x, IDX, plan=plan),
            lambda x, plan: oracles.gather(x, IDX),
            randn(NSEG, *tail, seed=1),
            IDX,
            NSEG,
        )
        for g in planned:
            np.testing.assert_array_equal(g, oracle)

    @pytest.mark.parametrize("which", ["sum", "softmax", "mean"])
    @pytest.mark.parametrize("tail", [(), (4,)])
    def test_segment_ops_backward(self, which, tail):
        op, ref = SEGMENT_OPS[which]
        oracle, *planned = self.grads(
            lambda x, plan: op(x, IDX, NSEG, plan=plan),
            lambda x, plan: ref(x, IDX, NSEG),
            randn(len(IDX), *tail, seed=2),
            IDX,
            NSEG,
        )
        for g in planned:
            np.testing.assert_array_equal(g, oracle)


class TestBitIdentityBackwardFloat32(TestBitIdentityBackward):
    """The same contract under the float32 compute policy."""

    DTYPE = "float32"


class TestOneShotPlans:
    def test_gather_builds_its_plan_only_for_backward(self):
        x = Tensor(randn(NSEG, 3, seed=16), requires_grad=True)
        with obs.capture() as registry:
            with no_grad():
                gather(x, IDX)
        assert "kernels.plan.built" not in registry.counters
        with obs.capture() as registry:
            gather(x, IDX).sum().backward()
        assert registry.counters["kernels.plan.built"] == 1.0

    def test_planless_op_validates_its_index(self):
        with pytest.raises(ValueError):
            segment_softmax(Tensor(randn(2, seed=17)), np.array([0, 5]), 3)


class TestPlannedGradchecks:
    """Finite-difference checks run THROUGH the planned kernels."""

    def test_gather(self):
        plan = SegmentPlan(IDX, NSEG)
        x = Tensor(randn(NSEG, 3, seed=11), requires_grad=True)
        gradcheck(lambda a: (gather(a, IDX, plan=plan) ** 2).sum(), [x])

    def test_segment_sum(self):
        plan = SegmentPlan(IDX, NSEG)
        x = Tensor(randn(len(IDX), 2, seed=12), requires_grad=True)
        gradcheck(lambda a: (segment_sum(a, IDX, NSEG, plan=plan) ** 2).sum(), [x])

    def test_segment_mean(self):
        plan = SegmentPlan(IDX, NSEG)
        x = Tensor(randn(len(IDX), 2, seed=13), requires_grad=True)
        gradcheck(lambda a: (segment_mean(a, IDX, NSEG, plan=plan) ** 2).sum(), [x])

    def test_segment_softmax_multihead(self):
        plan = SegmentPlan(IDX, NSEG)
        logits = Tensor(randn(len(IDX), 3, seed=15), requires_grad=True)
        gradcheck(
            lambda a: (segment_softmax(a, IDX, NSEG, plan=plan) ** 2).sum(), [logits]
        )


class TestPlanCache:
    def edge_index(self):
        return np.array([[0, 1, 2, 2, 3], [1, 0, 3, 1, 0]])

    def test_accessors_memoize(self):
        cache = PlanCache(self.edge_index(), 4)
        with obs.capture() as registry:
            p1 = cache.dst()
            p2 = cache.dst()
            p3 = cache.dst(loops=True)
        assert p1 is p2
        assert p3 is not p1
        assert registry.counters["kernels.plan_cache.hits"] == 1.0
        # dst(), dst(loops=True) and the loop edge index each miss once.
        assert registry.counters["kernels.plan_cache.misses"] == 3.0

    def test_loop_edge_index_matches_add_self_loops(self):
        ei = self.edge_index()
        cache = PlanCache(ei, 4)
        loops = np.arange(4, dtype=np.int64)
        expected = np.concatenate([ei, np.stack([loops, loops])], axis=1)
        np.testing.assert_array_equal(cache.loop_edge_index(), expected)
        assert cache.loop_edge_index() is cache.loop_edge_index()

    def test_gcn_coeff_matches_manual(self):
        ei = self.edge_index()
        cache = PlanCache(ei, 4)
        src, dst = cache.loop_edge_index()
        deg = np.bincount(dst, minlength=4).astype(np.float64)
        inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))
        np.testing.assert_array_equal(cache.gcn_coeff(), inv_sqrt[src] * inv_sqrt[dst])

    def test_loop_edge_attr_sees_inplace_mutation(self):
        cache = PlanCache(self.edge_index(), 4)
        attr = randn(5, 3, seed=21)
        first = cache.loop_edge_attr(attr)
        attr[:] = 0.0
        second = cache.loop_edge_attr(attr)
        assert first.shape == second.shape == (9, 3)
        np.testing.assert_array_equal(second[:5], 0.0)
        assert cache.loop_edge_attr(None) is None

    def test_node_plan_requires_batch_vector(self):
        cache = PlanCache(self.edge_index(), 4)
        with pytest.raises(ValueError):
            cache.node()
        with_batch = PlanCache(
            self.edge_index(), 4, batch=np.array([0, 0, 1, 1]), num_graphs=2
        )
        np.testing.assert_array_equal(with_batch.node().counts, [2, 2])


def make_conv(which):
    from repro.models.layers import GATConv, GCNConv
    from repro.models.rgcn import RGCNConv
    from repro.models.sage import SAGEConv

    return {
        "gcn": lambda: GCNConv(5, 4, rng=0),
        "gat": lambda: GATConv(5, 4, heads=2, edge_dim=3, rng=0),
        "sage": lambda: SAGEConv(5, 4, rng=0),
        "rgcn": lambda: RGCNConv(5, 4, num_relations=3, num_bases=2, rng=0),
    }[which]()


class TestConvBitIdentity:
    """Conv layers, sort pooling and a whole training run: planned
    forward+backward == the np.add.at reference ops, bitwise."""

    def make_graph(self, n=9, e=24, attr_dim=3, seed=31):
        gen = np.random.default_rng(seed)
        ei = gen.integers(0, n, size=(2, e))
        x = gen.normal(size=(n, 5))
        attr = gen.normal(size=(e, attr_dim))
        return ei, x, attr

    def run_conv(self, conv, x, ei, attr, plans):
        conv.zero_grad()
        xt = Tensor(x.copy(), requires_grad=True)
        out = conv(xt, ei, attr, plans=plans)
        w = randn(*out.shape, seed=41)
        (out * Tensor(w)).sum().backward()
        grads = {name: p.grad.copy() for name, p in conv.named_parameters()}
        return out.data, xt.grad.copy(), grads

    def assert_runs_equal(self, a, b):
        (out_a, xg_a, pg_a), (out_b, xg_b, pg_b) = a, b
        np.testing.assert_array_equal(out_a, out_b)
        np.testing.assert_array_equal(xg_a, xg_b)
        assert pg_a.keys() == pg_b.keys()
        for name in pg_a:
            np.testing.assert_array_equal(pg_a[name], pg_b[name], err_msg=name)

    @pytest.mark.parametrize("which", ["gcn", "gat"])
    def test_planned_equals_unplanned(self, which):
        conv = make_conv(which)
        ei, x, attr = self.make_graph()
        planned = self.run_conv(conv, x, ei, attr, PlanCache(ei, x.shape[0]))
        with oracles.reference_ops():
            reference = self.run_conv(conv, x, ei, attr, None)
        self.assert_runs_equal(planned, reference)

    @pytest.mark.parametrize("which", ["gcn", "gat", "sage", "rgcn"])
    def test_no_plans_equals_plan_cache(self, which):
        """A layer given no ``plans`` builds its own and runs the same path."""
        conv = make_conv(which)
        ei, x, attr = self.make_graph()
        given = self.run_conv(conv, x, ei, attr, PlanCache(ei, x.shape[0]))
        self.assert_runs_equal(self.run_conv(conv, x, ei, attr, None), given)

    def test_trained_weights_identical_plans_on_vs_off(self):
        """End-to-end oracle: same loss curve and weights on the planned
        kernels and on the reference ops (mirrors
        tests/data/test_loader.py's worker-count bit-identity)."""
        from repro.datasets.primekg import load_primekg_like
        from repro.models import AMDGCNN
        from repro.seal.dataset import SEALDataset, train_test_split_indices
        from repro.seal.trainer import TrainConfig, train

        task = load_primekg_like(scale=0.12, num_targets=40, rng=0)

        def run():
            ds = SEALDataset(task, rng=7)
            tr, te = train_test_split_indices(
                task.num_links, 0.3, labels=task.labels, rng=0
            )
            model = AMDGCNN(
                ds.feature_width,
                task.num_classes,
                edge_dim=task.edge_attr_dim,
                heads=2,
                hidden_dim=8,
                num_conv_layers=2,
                sort_k=6,
                dropout=0.0,
                rng=1,
            )
            result = train(
                model,
                ds,
                tr,
                TrainConfig(epochs=2, batch_size=8, lr=1e-3),
                eval_indices=te,
                rng=5,
                verbose=False,
            )
            return result, model.state_dict()

        on_result, on_state = run()
        with oracles.reference_ops():
            off_result, off_state = run()
        assert on_result.losses == off_result.losses
        assert on_result.eval_auc == off_result.eval_auc
        assert on_state.keys() == off_state.keys()
        for name in on_state:
            np.testing.assert_array_equal(on_state[name], off_state[name])

    def test_sort_pool_planned_equals_unplanned(self):
        from repro.models.sort_pool import sort_pool

        batch = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        data = randn(9, 4, seed=32)
        plan = SegmentPlan(batch, 3)
        runs = []
        for kw, ops in (
            ({"plan": plan}, nullcontext()),
            ({}, nullcontext()),
            ({}, oracles.reference_ops()),
        ):
            x = Tensor(data.copy(), requires_grad=True)
            with ops:
                out = sort_pool(x, batch, 3, k=3, **kw)
                (out * Tensor(randn(*out.shape, seed=33))).sum().backward()
            runs.append((out.data, x.grad))
        for out, grad in runs[1:]:
            np.testing.assert_array_equal(out, runs[0][0])
            np.testing.assert_array_equal(grad, runs[0][1])
