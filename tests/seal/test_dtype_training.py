"""Mixed-precision training: metric parity and cross-policy checkpoints.

Float32 training is only worth shipping if (a) the metrics land where
float64's do and (b) checkpoints stay lossless — the float64 Adam
masters ride along in the optimizer state, so a run saved under one
policy can resume under the other without losing a bit of progress.
"""

import numpy as np
import pytest

from repro.datasets import load_primekg_like
from repro.models import AMDGCNN
from repro.seal import (
    CheckpointConfig,
    SEALDataset,
    TrainConfig,
    load_checkpoint,
    latest_checkpoint,
    train,
    train_test_split_indices,
)
from tests.faults import PoisonModel, kill_at


@pytest.fixture(scope="module")
def setup():
    task = load_primekg_like(scale=0.12, num_targets=40, rng=0)
    ds = SEALDataset(task, rng=0)
    tr, te = train_test_split_indices(task.num_links, 0.3, labels=task.labels, rng=0)
    return task, ds, tr, te


def make_model(ds, task):
    return AMDGCNN(
        ds.feature_width, task.num_classes, edge_dim=task.edge_attr_dim,
        heads=2, hidden_dim=8, num_conv_layers=2, sort_k=6, rng=1,
    )


def run(ds, task, tr, te, *, compute_dtype, epochs=3, ckpt_dir=None, kill_after=None):
    """One run; ``kill_after`` interrupts the first training forward after
    that many (checkpointed) epochs."""
    config = TrainConfig(
        epochs=epochs, batch_size=8, lr=3e-3, compute_dtype=compute_dtype
    )
    kill = None if kill_after is None else kill_at(kill_after, len(tr), config.batch_size)
    model = PoisonModel(make_model(ds, task), kill_at=kill)
    result = train(
        model, ds, tr, config,
        eval_indices=te, rng=0, verbose=False,
        checkpoint=CheckpointConfig(dir=ckpt_dir) if ckpt_dir is not None else None,
    )
    return result, model


class TestMetricParity:
    def test_float32_metrics_match_float64(self, setup):
        """Acceptance: fp32 eval metrics within 1e-3 of fp64's."""
        task, ds, tr, te = setup
        r64, m64 = run(ds, task, tr, te, compute_dtype="float64")
        r32, m32 = run(ds, task, tr, te, compute_dtype="float32")
        assert all(p.data.dtype == np.dtype("float64") for _, p in m64.named_parameters())
        assert all(p.data.dtype == np.dtype("float32") for _, p in m32.named_parameters())
        assert abs(r32.eval_auc[-1] - r64.eval_auc[-1]) < 1e-3
        assert abs(r32.eval_ap[-1] - r64.eval_ap[-1]) < 1e-3
        np.testing.assert_allclose(r32.losses, r64.losses, rtol=1e-3, atol=1e-4)


class TestCrossPolicyCheckpoints:
    def test_float32_resume_is_bit_identical(self, setup, tmp_path):
        """Kill an fp32 run at an epoch boundary, resume at fp32: the
        float64 masters in the optimizer state make the stitched run
        bit-identical to the uninterrupted one."""
        task, ds, tr, te = setup
        full, full_model = run(ds, task, tr, te, compute_dtype="float32")
        with pytest.raises(KeyboardInterrupt):
            run(ds, task, tr, te, compute_dtype="float32",
                ckpt_dir=tmp_path, kill_after=2)
        resumed, resumed_model = run(
            ds, task, tr, te, compute_dtype="float32", ckpt_dir=tmp_path
        )
        assert resumed.resumed_from_epoch == 2
        assert resumed.losses == full.losses
        assert resumed.eval_auc == full.eval_auc
        a, b = full_model.state_dict(), resumed_model.state_dict()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_checkpoint_carries_float64_masters(self, setup, tmp_path):
        task, ds, tr, te = setup
        with pytest.raises(KeyboardInterrupt):
            run(ds, task, tr, te, compute_dtype="float32",
                ckpt_dir=tmp_path, kill_after=2)
        state = load_checkpoint(latest_checkpoint(tmp_path))
        masters = {
            name: slots["master"]
            for name, slots in state.optimizer_state["state"].items()
            if "master" in slots
        }
        assert masters, "fp32 checkpoint has no master weights"
        assert all(m.dtype == np.dtype("float64") for m in masters.values())
        assert state.train_config.get("compute_dtype") == "float32"

    def test_float32_checkpoint_resumes_under_float64(self, setup, tmp_path):
        """Switching policy at resume time restores params from the
        lossless masters and finishes the run at full precision."""
        task, ds, tr, te = setup
        with pytest.raises(KeyboardInterrupt):
            run(ds, task, tr, te, compute_dtype="float32",
                ckpt_dir=tmp_path, kill_after=2)
        state = load_checkpoint(latest_checkpoint(tmp_path))
        masters = {
            name: slots["master"].copy()
            for name, slots in state.optimizer_state["state"].items()
            if "master" in slots
        }
        resumed, model = run(
            ds, task, tr, te, compute_dtype="float64", ckpt_dir=tmp_path, epochs=2
        )
        assert resumed.resumed_from_epoch == 2
        assert resumed.epochs_run == 2  # nothing left to train — pure restore
        sd = model.state_dict()
        for name, master in masters.items():
            assert sd[name].dtype == np.dtype("float64")
            # restored bit-exactly from the master, not from the fp32 cast
            np.testing.assert_array_equal(sd[name], master)
