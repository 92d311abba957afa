"""Crash-safe checkpoint/resume: kill-and-resume bit-identity properties.

The contract under test: a run killed at an epoch boundary and resumed
from its checkpoint directory produces *exactly* the same losses, eval
AUC/AP trace and final weights as the same run left uninterrupted —
also with a non-finite batch skipped by the guard along the way.
"""

import numpy as np
import pytest

from repro import obs
from repro.data import warm
from repro.datasets import load_primekg_like
from repro.models import AMDGCNN
from repro.seal import (
    CheckpointConfig,
    NonFiniteLossError,
    SEALDataset,
    TrainConfig,
    load_checkpoint,
    latest_checkpoint,
    train,
    train_test_split_indices,
)
from repro.seal.checkpoint import list_checkpoints
from repro.seal.trainer import MAX_NONFINITE_STEPS
from tests.faults import PoisonModel, kill_at

pytestmark = pytest.mark.fault


@pytest.fixture(scope="module")
def setup():
    task = load_primekg_like(scale=0.12, num_targets=40, rng=0)
    ds = SEALDataset(task, rng=0)
    tr, te = train_test_split_indices(task.num_links, 0.3, labels=task.labels, rng=0)
    warm(ds)
    return task, ds, tr, te


def make_model(ds, task, dropout=0.0):
    return AMDGCNN(
        ds.feature_width, task.num_classes, edge_dim=task.edge_attr_dim,
        heads=2, hidden_dim=8, num_conv_layers=2, sort_k=6,
        dropout=dropout, rng=1,
    )


def assert_results_equal(a, b):
    assert a.losses == b.losses
    assert a.eval_auc == b.eval_auc
    assert a.eval_ap == b.eval_ap
    assert a.epochs_run == b.epochs_run
    assert a.nonfinite_steps == b.nonfinite_steps


def assert_states_equal(a, b):
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def run_training(
    ds, task, tr, te, tmp_dir, *, epochs=4, kill_after=None, dropout=0.0, poison_at=None,
):
    """One training run; returns (result, final state_dict) or raises.

    Every run wraps the model in :class:`PoisonModel` (usually inert) so
    parameter names — and hence checkpoint keys — match across runs.
    ``kill_after`` interrupts the first training forward after that many
    epochs; every epoch is checkpointed, so a rerun resumes from there.
    """
    config = TrainConfig(epochs=epochs, batch_size=8, lr=3e-3)
    kill = None if kill_after is None else kill_at(kill_after, len(tr), config.batch_size)
    model = PoisonModel(
        make_model(ds, task, dropout=dropout), poison_at=poison_at, kill_at=kill
    )
    result = train(
        model, ds, tr, config,
        eval_indices=te, rng=0, verbose=False,
        checkpoint=CheckpointConfig(dir=tmp_dir) if tmp_dir is not None else None,
    )
    return result, model.state_dict()


class TestKillAndResume:
    def test_serial_resume_is_bit_identical(self, setup, tmp_path):
        task, ds, tr, te = setup
        full, full_state = run_training(ds, task, tr, te, None, dropout=0.1)
        with pytest.raises(KeyboardInterrupt):
            run_training(ds, task, tr, te, tmp_path, kill_after=2, dropout=0.1)
        assert latest_checkpoint(tmp_path) is not None
        resumed, resumed_state = run_training(ds, task, tr, te, tmp_path, dropout=0.1)
        assert resumed.resumed_from_epoch == 2
        assert_results_equal(full, resumed)
        assert_states_equal(full_state, resumed_state)

    def test_resume_after_nonfinite_batch_is_bit_identical(self, setup, tmp_path):
        task, ds, tr, te = setup
        # Poison one batch of epoch 0 — the guard skips it in both runs.
        full, full_state = run_training(ds, task, tr, te, None, poison_at=2)
        assert full.nonfinite_steps == 1
        with pytest.raises(KeyboardInterrupt):
            run_training(ds, task, tr, te, tmp_path, kill_after=2, poison_at=2)
        resumed, resumed_state = run_training(
            ds, task, tr, te, tmp_path, poison_at=None
        )
        assert resumed.nonfinite_steps == 1
        assert_results_equal(full, resumed)
        assert_states_equal(full_state, resumed_state)

    def test_resume_of_complete_run_trains_no_further(self, setup, tmp_path):
        task, ds, tr, te = setup
        done, done_state = run_training(ds, task, tr, te, tmp_path)
        again, again_state = run_training(ds, task, tr, te, tmp_path)
        assert again.resumed_from_epoch == 4
        assert again.epochs_run == 4
        assert_results_equal(done, again)
        assert_states_equal(done_state, again_state)

    def test_resume_disabled_starts_over(self, setup, tmp_path):
        task, ds, tr, te = setup
        run_training(ds, task, tr, te, tmp_path, epochs=2)
        model = PoisonModel(make_model(ds, task))
        result = train(
            model, ds, tr, TrainConfig(epochs=2, batch_size=8, lr=3e-3),
            eval_indices=te, rng=0, verbose=False,
            checkpoint=CheckpointConfig(dir=tmp_path, resume=False),
        )
        assert result.resumed_from_epoch is None


class TestCheckpointPolicy:
    def test_keep_last_prunes_old_bundles(self, setup, tmp_path):
        task, ds, tr, te = setup
        model = PoisonModel(make_model(ds, task))
        train(
            model, ds, tr, TrainConfig(epochs=4, batch_size=8, lr=3e-3),
            rng=0, verbose=False,
            checkpoint=CheckpointConfig(dir=tmp_path, every=1),
        )
        # Only the newest two bundles survive pruning.
        names = [p.name for p in list_checkpoints(tmp_path)]
        assert names == ["ckpt_000003.npz", "ckpt_000004.npz"]

    def test_cadence_plus_final_epoch(self, setup, tmp_path):
        task, ds, tr, te = setup
        model = PoisonModel(make_model(ds, task))
        train(
            model, ds, tr, TrainConfig(epochs=3, batch_size=8, lr=3e-3),
            rng=0, verbose=False,
            checkpoint=CheckpointConfig(dir=tmp_path, every=2),
        )
        # Cadence writes epoch 2; the final epoch always writes.
        names = [p.name for p in list_checkpoints(tmp_path)]
        assert names == ["ckpt_000002.npz", "ckpt_000003.npz"]

    def test_bundle_contents_roundtrip(self, setup, tmp_path):
        task, ds, tr, te = setup
        model = PoisonModel(make_model(ds, task))
        result = train(
            model, ds, tr, TrainConfig(epochs=2, batch_size=8, lr=3e-3),
            eval_indices=te, rng=0, verbose=False,
            checkpoint=CheckpointConfig(dir=tmp_path),
        )
        ck = load_checkpoint(latest_checkpoint(tmp_path))
        assert ck.epoch == 2
        assert ck.result.losses == result.losses
        assert ck.result.eval_auc == result.eval_auc
        assert_states_equal(ck.model_state, model.state_dict())
        assert "shuffle" in ck.rng_states
        assert ck.train_config["epochs"] == 2

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointConfig(dir=tmp_path, every=0)


class TestNonFiniteGuard:
    def test_aborts_after_consecutive_bad_steps(self, setup, tmp_path):
        task, ds, tr, te = setup
        model = PoisonModel(make_model(ds, task), poison_at="always")
        with pytest.raises(
            NonFiniteLossError, match=f"{MAX_NONFINITE_STEPS} consecutive non-finite"
        ):
            train(
                model, ds, tr, TrainConfig(epochs=2, batch_size=8, lr=3e-3),
                rng=0, verbose=False,
            )
        assert model.calls == MAX_NONFINITE_STEPS

    def test_skipped_step_leaves_weights_intact(self, setup):
        task, ds, tr, te = setup
        model = PoisonModel(make_model(ds, task), poison_at="always")
        before = model.state_dict()
        with obs.capture() as registry:
            with pytest.raises(NonFiniteLossError):
                train(
                    model, ds, tr, TrainConfig(epochs=2, batch_size=8, lr=3e-3),
                    rng=0, verbose=False,
                )
        assert registry.counters["train.nonfinite_steps"] == MAX_NONFINITE_STEPS
        assert_states_equal(before, model.state_dict())

    def test_abort_writes_last_completed_epoch(self, setup, tmp_path):
        task, ds, tr, te = setup
        # Finite through epoch 0, poisoned forever from epoch 1 on.
        n_batches = -(-len(tr) // 8)

        class PoisonFromSecondEpoch(PoisonModel):
            def forward(self, batch):
                out = super().forward(batch)
                if self.training and self.calls > n_batches:
                    out = out * np.nan
                return out

        model = PoisonFromSecondEpoch(make_model(ds, task))
        # Epochs of all-skipped steps still complete until the abort.
        completed = 1 + (MAX_NONFINITE_STEPS - 1) // n_batches
        with pytest.raises(NonFiniteLossError):
            train(
                model, ds, tr, TrainConfig(epochs=completed + 2, batch_size=8, lr=3e-3),
                rng=0, verbose=False,
                checkpoint=CheckpointConfig(dir=tmp_path, every=10),
            )
        # Cadence (every=10) never fired, but the abort persisted the
        # last completed epoch.
        ck = load_checkpoint(latest_checkpoint(tmp_path))
        assert ck.epoch == completed


class TestTrainValidation:
    def test_empty_train_indices_raise(self, setup):
        task, ds, tr, te = setup
        with pytest.raises(ValueError, match="train_indices is empty"):
            train(make_model(ds, task), ds, [], TrainConfig(epochs=1), rng=0)
