"""ParameterBuffer: layout round-trips, the ordered reduction, lifecycle."""

import numpy as np
import pytest

from repro.store import CMD_ABORT, CMD_RUN, ParameterBuffer

SPEC = [("layer.w", (3, 4)), ("layer.b", (4,)), ("head.w", (2, 2, 2))]


def filled(seed):
    gen = np.random.default_rng(seed)
    return {name: gen.normal(size=shape) for name, shape in SPEC}


class TestParams:
    def test_round_trip_local(self):
        buf = ParameterBuffer.local(SPEC, 2)
        values = filled(0)
        buf.put_params(values)
        out = buf.get_params()
        assert set(out) == {name for name, _ in SPEC}
        for name, _ in SPEC:
            np.testing.assert_array_equal(out[name], values[name])

    def test_round_trip_shared_memory(self):
        with ParameterBuffer.create(SPEC, 3) as buf:
            values = filled(1)
            buf.put_params(values)
            attached = ParameterBuffer.attach(buf.meta)
            try:
                out = attached.get_params()
                for name, _ in SPEC:
                    np.testing.assert_array_equal(out[name], values[name])
            finally:
                attached.close()

    def test_shape_mismatch_rejected(self):
        buf = ParameterBuffer.local(SPEC, 1)
        bad = filled(0)
        bad["layer.b"] = np.zeros((5,))
        with pytest.raises(ValueError, match="shape"):
            buf.put_params(bad)

    def test_local_has_no_cross_process_meta(self):
        with pytest.raises(ValueError, match="local"):
            ParameterBuffer.local(SPEC, 1).meta


class TestReduce:
    def test_reduce_is_strict_rank_order_sum(self):
        buf = ParameterBuffer.local(SPEC, 4)
        slabs = [filled(10 + r) for r in range(4)]
        for rank, grads in enumerate(slabs):
            buf.put_grads(rank, grads, loss=0.1 * rank, count=rank)
        reduced = buf.reduce_grads()
        for name, shape in SPEC:
            expect = slabs[0][name].copy()
            for r in range(1, 4):
                expect = expect + slabs[r][name]
            np.testing.assert_array_equal(reduced[name], expect)
            assert reduced[name].shape == shape

    def test_reduce_loss_is_ordered_sum(self):
        buf = ParameterBuffer.local(SPEC, 3)
        losses = [0.1, 1e-17, 0.2]
        for rank, loss in enumerate(losses):
            buf.put_grads(rank, None, loss=loss, count=1)
        expect = 0.0
        for loss in losses:
            expect += loss
        assert buf.reduce_loss() == expect
        np.testing.assert_array_equal(buf.counts(), [1, 1, 1])

    def test_none_grads_zero_the_slab(self):
        buf = ParameterBuffer.local(SPEC, 2)
        buf.put_grads(0, filled(3), loss=1.0, count=4)
        buf.put_grads(1, filled(4), loss=1.0, count=4)
        buf.put_grads(1, None, loss=0.0, count=0)
        reduced = buf.reduce_grads()
        for name, _ in SPEC:
            np.testing.assert_array_equal(reduced[name], filled(3)[name] + 0.0)

    def test_missing_name_in_grads_zeroes_that_param(self):
        buf = ParameterBuffer.local(SPEC, 1)
        grads = filled(5)
        del grads["head.w"]
        buf.put_grads(0, grads, loss=0.5, count=2)
        reduced = buf.reduce_grads()
        np.testing.assert_array_equal(reduced["head.w"], np.zeros((2, 2, 2)))

    def test_local_and_shared_reduce_identically(self):
        slabs = [filled(20 + r) for r in range(3)]
        local = ParameterBuffer.local(SPEC, 3)
        for rank, grads in enumerate(slabs):
            local.put_grads(rank, grads, loss=0.3, count=1)
        with ParameterBuffer.create(SPEC, 3) as shared:
            for rank, grads in enumerate(slabs):
                shared.put_grads(rank, grads, loss=0.3, count=1)
            a, b = local.reduce_grads(), shared.reduce_grads()
            for name, _ in SPEC:
                np.testing.assert_array_equal(a[name], b[name])


class TestControlAndLifecycle:
    def test_command_word(self):
        with ParameterBuffer.create(SPEC, 1) as buf:
            assert buf.get_command() == CMD_RUN
            attached = ParameterBuffer.attach(buf.meta)
            try:
                buf.set_command(CMD_ABORT)
                assert attached.get_command() == CMD_ABORT
                attached.set_command(CMD_RUN)
                assert buf.get_command() == CMD_RUN
            finally:
                attached.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            ParameterBuffer.local([], 1)
        with pytest.raises(ValueError, match="duplicate"):
            ParameterBuffer.local([("w", (2,)), ("w", (3,))], 1)
        with pytest.raises(ValueError, match="num_slabs"):
            ParameterBuffer.local(SPEC, 0)

    def test_owner_unlinks_on_close(self):
        buf = ParameterBuffer.create(SPEC, 1)
        meta = buf.meta
        buf.close()
        with pytest.raises(FileNotFoundError):
            ParameterBuffer.attach(meta)
