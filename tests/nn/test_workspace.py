"""Workspace arena: pooling semantics, donation safety, kernel out= paths.

The arena may never change numerics — the high-value tests here are the
safety ones: recycled gradient buffers must be fully overwritten, leaf
``.grad`` arrays must escape the pool (a later backward reusing pooled
memory cannot corrupt them), and a warm steady-state backward must
actually hit the pool instead of allocating.
"""

import numpy as np
import pytest

from repro.models.layers import GATConv
from repro.nn import workspace as ws
from repro.nn.kernels import SegmentPlan
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor


@pytest.fixture
def pool():
    """A private pool — tests never mutate the process-global one."""
    return ws.Workspace(max_per_key=2)


class TestWorkspacePool:
    def test_miss_then_hit(self, pool):
        a = pool.acquire((3, 4), np.float64)
        assert pool.misses == 1 and pool.hits == 0
        assert pool.release(a)
        b = pool.acquire((3, 4), np.float64)
        assert b is a  # recycled, not reallocated
        assert pool.hits == 1

    def test_keyed_by_shape_and_dtype(self, pool):
        a = pool.acquire((3, 4), np.float64)
        pool.release(a)
        b = pool.acquire((3, 4), np.float32)
        c = pool.acquire((4, 3), np.float64)
        assert b is not a and c is not a
        assert pool.misses == 3

    def test_zero_flag_clears_recycled_buffer(self, pool):
        a = pool.acquire((4,), np.float64)
        a.fill(7.0)
        pool.release(a)
        b = pool.acquire((4,), np.float64, zero=True)
        np.testing.assert_array_equal(b, 0.0)

    def test_release_rejects_foreign_arrays(self, pool):
        assert not pool.release(np.zeros(3))
        assert pool.pooled_buffers == 0

    def test_per_key_cap(self, pool):
        bufs = [pool.acquire((2,), np.float64) for _ in range(4)]
        kept = [pool.release(b) for b in bufs]
        assert kept == [True, True, False, False]  # max_per_key=2
        assert pool.pooled_buffers == 2

    def test_forget_removes_lent_tracking(self, pool):
        a = pool.acquire((2,), np.float64)
        pool.forget(a)
        assert not pool.owns(a)
        assert not pool.release(a)

    def test_stats_shape(self, pool):
        a = pool.acquire((8,), np.float64)
        pool.release(a)
        pool.acquire((8,), np.float64)
        s = pool.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["releases"] == 1
        assert s["hit_rate"] == 0.5
        assert s["pooled_buffers"] == 0
        assert s["pooled_bytes"] == 0


class TestGradArena:
    def test_retire_donates_owned_buffers(self, pool):
        arena = ws.GradArena(pool)
        a = arena.alloc((3,), np.float64)
        arena.retire(a)
        assert pool.pooled_buffers == 1

    def test_retire_ignores_foreign_buffers(self, pool):
        arena = ws.GradArena(pool)
        foreign = np.zeros(3)
        arena.retire(foreign)  # no-op, no error
        assert pool.pooled_buffers == 0

    def test_disown_keeps_buffer_out_of_pool(self, pool):
        arena = ws.GradArena(pool)
        a = arena.alloc((3,), np.float64)
        arena.disown(a)
        arena.retire(a)  # ownership already escaped
        assert pool.pooled_buffers == 0
        assert not pool.owns(a)

    def test_close_forgets_leftovers(self, pool):
        arena = ws.GradArena(pool)
        a = arena.alloc((3,), np.float64)
        arena.close()
        assert not pool.owns(a)
        assert pool.pooled_buffers == 0


class TestArenaScoping:
    def test_grad_buffer_plain_outside_backward(self):
        assert ws.current_arena() is None
        buf = ws.grad_buffer((3,), np.float64, zero=True)
        np.testing.assert_array_equal(buf, 0.0)
        assert not ws.global_workspace().owns(buf)

    def test_open_arena_declines_when_nested(self):
        arena = ws.open_arena()
        try:
            assert arena is not None
            assert ws.open_arena() is None  # backwards don't nest
        finally:
            ws.close_arena(arena)
        assert ws.current_arena() is None


def _gat_step(seed=0):
    """One GATConv forward+backward; returns (loss value, named grads)."""
    rng = np.random.default_rng(seed)
    n, e = 13, 40
    x = rng.normal(size=(n, 4))
    ei = rng.integers(0, n, size=(2, e))
    ea = rng.normal(size=(e, 3))
    labels = rng.integers(0, 4, size=n)
    layer = GATConv(4, 4, heads=2, edge_dim=3, rng=5)
    loss = cross_entropy(layer(Tensor(x), ei, edge_attr=ea), labels)
    loss.backward()
    return float(loss.data), {k: p.grad for k, p in layer.named_parameters()}


class TestBackwardDonation:
    def test_bit_identity_cold_and_warm_pool(self):
        pool = ws.global_workspace()
        pool.clear()
        misses = pool.misses
        loss_cold, grads_cold = _gat_step()  # starts from an empty pool
        assert pool.misses > misses
        hits = pool.hits
        loss_warm, grads_warm = _gat_step()  # recycles the cold pass's buffers
        assert pool.hits > hits
        assert loss_warm == loss_cold
        for name in grads_cold:
            np.testing.assert_array_equal(grads_warm[name], grads_cold[name])

    def test_warm_backward_hits_the_pool(self):
        pool = ws.global_workspace()
        _gat_step()  # cold: populate free lists
        before = pool.hits
        _gat_step()
        assert pool.hits > before

    def test_leaf_grads_escape_the_pool(self):
        """A later backward recycling pooled buffers must not touch
        earlier leaf ``.grad`` arrays."""
        pool = ws.global_workspace()
        _, grads = _gat_step()
        for name, g in grads.items():
            assert not pool.owns(g), f"{name}: leaf grad still lent out"
        frozen = {k: g.copy() for k, g in grads.items()}
        _gat_step(seed=1)  # reuses whatever the pool recycled
        for name in frozen:
            np.testing.assert_array_equal(grads[name], frozen[name], err_msg=name)


class TestKernelOutVariants:
    @pytest.fixture
    def plan(self):
        rng = np.random.default_rng(3)
        index = np.sort(rng.integers(0, 6, size=25))
        return SegmentPlan(index, 6), rng.normal(size=(25, 4))

    def test_segment_sum_out_matches_plain(self, plan):
        p, data = plan
        plain = p.segment_sum(data)
        out = np.full((6, 4), np.nan)  # stale garbage must be overwritten
        result = p.segment_sum(data, out=out)
        assert result is out
        np.testing.assert_array_equal(out, plain)

    def test_segment_max_out_matches_plain(self, plan):
        p, data = plan
        plain = p.segment_max(data)
        out = np.full((6, 4), np.nan)
        result = p.segment_max(data, out=out)
        assert result is out
        np.testing.assert_array_equal(out, plain)

    def test_segment_softmax_out_matches_plain(self, plan):
        p, data = plan
        plain = p.segment_softmax(data)
        out = np.full((25, 4), np.nan)
        result = p.segment_softmax(data, out=out)
        assert result is out
        np.testing.assert_array_equal(out, plain)

    def test_empty_plan_out_zeroed(self):
        p = SegmentPlan(np.array([], dtype=np.int64), 3)
        out = np.full((3, 2), np.nan)
        p.segment_sum(np.empty((0, 2)), out=out)
        np.testing.assert_array_equal(out, 0.0)
