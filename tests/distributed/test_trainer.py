"""Data-parallel trainer: bit-identity, resume, guards, fault paths.

The in-process tests run everywhere in tier-1 (they need no second
core); the ``distributed``-marked ones spawn real worker processes and
are skipped with a reason on single-core hosts
(``REPRO_DISTRIBUTED_FORCE=1`` overrides — bit-identity holds even
timeshared).
"""

import dataclasses

import numpy as np
import pytest

import repro.distributed.trainer as trainer_mod
from repro.seal.checkpoint import CheckpointConfig, latest_checkpoint, load_checkpoint
from repro.seal.dataset import SEALDataset
from repro.seal.trainer import MAX_NONFINITE_STEPS, NonFiniteLossError, TrainConfig, train
from repro.distributed import (
    DistributedConfig,
    partition_graph,
    train_data_parallel,
)

from tests.distributed.conftest import assert_same_weights, make_model, needs_multicore


def dconfig(**kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("batch_size", 16)
    kw.setdefault("lr", 3e-3)
    return DistributedConfig(**kw)


class TestReferenceIdentity:
    def test_k1_matches_seal_train_bitwise(self, task, split, dataset):
        tr, ev = split
        m_ref = make_model(task)
        ref = train(
            m_ref,
            SEALDataset(task, rng=0),
            tr,
            TrainConfig(epochs=2, batch_size=16, lr=3e-3),
            eval_indices=ev,
            rng=5,
            verbose=False,
        )
        m_dp = make_model(task)
        got = train_data_parallel(
            m_dp,
            dataset,
            tr,
            dconfig(num_shards=1),
            eval_indices=ev,
            rng=5,
            verbose=False,
        )
        assert got.losses == ref.losses
        assert got.eval_auc == ref.eval_auc
        assert got.eval_ap == ref.eval_ap
        assert_same_weights(m_ref, m_dp)

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_in_process_is_deterministic(self, task, split, num_shards):
        tr, ev = split
        part = partition_graph(task, num_shards, seed=11)
        results = []
        models = []
        for _ in range(2):
            model = make_model(task)
            results.append(
                train_data_parallel(
                    model,
                    SEALDataset(task, rng=0),
                    tr,
                    dconfig(num_shards=num_shards),
                    partition=part,
                    eval_indices=ev,
                    rng=5,
                    verbose=False,
                )
            )
            models.append(model)
        assert results[0].losses == results[1].losses
        assert results[0].eval_auc == results[1].eval_auc
        assert_same_weights(models[0], models[1])

    def test_sharding_matches_reference_numerically(self, task, split):
        """K-way grouping only reorders float ops: losses agree to ulps."""
        tr, ev = split
        m1 = make_model(task)
        r1 = train_data_parallel(
            m1, SEALDataset(task, rng=0), tr, dconfig(num_shards=1), rng=5,
            verbose=False,
        )
        m2 = make_model(task)
        r2 = train_data_parallel(
            m2, SEALDataset(task, rng=0), tr, dconfig(num_shards=2), rng=5,
            verbose=False,
        )
        np.testing.assert_allclose(r1.losses, r2.losses, rtol=1e-12)


class TestResume:
    def run(self, task, tr, ev, *, epochs, ckpt_dir=None, num_shards=2, part=None):
        model = make_model(task)
        checkpoint = (
            None if ckpt_dir is None else CheckpointConfig(dir=ckpt_dir, every=1)
        )
        result = train_data_parallel(
            model,
            SEALDataset(task, rng=0),
            tr,
            dconfig(num_shards=num_shards, epochs=epochs),
            partition=part,
            eval_indices=ev,
            rng=5,
            verbose=False,
            checkpoint=checkpoint,
        )
        return model, result

    def test_mid_run_resume_is_bit_identical(self, task, split, tmp_path):
        tr, ev = split
        part = partition_graph(task, 2, seed=11)
        m_full, r_full = self.run(task, tr, ev, epochs=4, part=part)
        # Interrupted run: stop after 2 epochs, then resume to 4.
        self.run(task, tr, ev, epochs=2, ckpt_dir=tmp_path, part=part)
        m_res, r_res = self.run(task, tr, ev, epochs=4, ckpt_dir=tmp_path, part=part)
        assert r_res.resumed_from_epoch == 2
        assert r_res.losses == r_full.losses
        assert r_res.eval_auc == r_full.eval_auc
        assert_same_weights(m_full, m_res)

    def test_checkpoint_records_num_shards(self, task, split, tmp_path):
        tr, ev = split
        self.run(task, tr, ev, epochs=1, ckpt_dir=tmp_path, num_shards=2)
        ck = load_checkpoint(latest_checkpoint(tmp_path))
        assert ck.train_config["num_shards"] == 2


class TestGuards:
    def test_nonfinite_weights_abort_and_checkpoint(self, task, split, tmp_path, dataset):
        tr, _ = split
        model = make_model(task)
        name, p = next(iter(model.named_parameters()))
        p.data[...] = np.nan
        with pytest.raises(NonFiniteLossError):
            train_data_parallel(
                model,
                dataset,
                tr,
                # At least one step per epoch: the abort comes within the run.
                dconfig(num_shards=2, epochs=MAX_NONFINITE_STEPS),
                rng=5,
                verbose=False,
                checkpoint=CheckpointConfig(dir=tmp_path, every=1),
            )

    def test_validation_errors(self, task, split, dataset):
        tr, _ = split
        with pytest.raises(ValueError, match="processes"):
            train_data_parallel(
                make_model(task), dataset, tr, dconfig(num_shards=2, processes=3)
            )
        with pytest.raises(ValueError, match="class_weights"):
            train_data_parallel(
                make_model(task),
                dataset,
                tr,
                dconfig(num_shards=2, class_weights=np.array([1.0, 2.0])),
            )
        with pytest.raises(ValueError, match="empty"):
            train_data_parallel(make_model(task), dataset, [], dconfig())
        part = partition_graph(task, 3, seed=1)
        with pytest.raises(ValueError, match="shards"):
            train_data_parallel(
                make_model(task), dataset, tr, dconfig(num_shards=2), partition=part
            )

    def test_active_dropout_rejected_for_k_gt_1(self, task, split, dataset):
        tr, _ = split
        with pytest.raises(ValueError, match="stochastic"):
            train_data_parallel(
                make_model(task, dropout=0.5), dataset, tr, dconfig(num_shards=2)
            )

    def test_dropout_allowed_at_k1(self, task, split, dataset):
        tr, _ = split
        result = train_data_parallel(
            make_model(task, dropout=0.5),
            dataset,
            tr,
            dconfig(num_shards=1, epochs=1),
            rng=5,
            verbose=False,
        )
        assert result.epochs_run == 1


@pytest.mark.distributed
@needs_multicore
class TestMultiProcess:
    def test_matches_in_process_bitwise(self, task, split):
        tr, ev = split
        part = partition_graph(task, 2, seed=11)
        m_ref = make_model(task)
        ref = train_data_parallel(
            m_ref, SEALDataset(task, rng=0), tr, dconfig(num_shards=2),
            partition=part, eval_indices=ev, rng=5, verbose=False,
        )
        m_mp = make_model(task)
        got = train_data_parallel(
            m_mp, SEALDataset(task, rng=0), tr, dconfig(num_shards=2, processes=2),
            partition=part, eval_indices=ev, rng=5, verbose=False,
        )
        assert got.losses == ref.losses
        assert got.eval_auc == ref.eval_auc
        assert_same_weights(m_ref, m_mp)

    def test_resume_across_modes_is_bit_identical(self, task, split, tmp_path):
        """Interrupt a multi-process run, resume it, match the straight run."""
        tr, ev = split
        part = partition_graph(task, 2, seed=11)
        m_full = make_model(task)
        r_full = train_data_parallel(
            m_full, SEALDataset(task, rng=0), tr, dconfig(num_shards=2, epochs=4),
            partition=part, eval_indices=ev, rng=5, verbose=False,
        )
        ckpt = CheckpointConfig(dir=tmp_path, every=1)
        train_data_parallel(
            make_model(task), SEALDataset(task, rng=0), tr,
            dconfig(num_shards=2, epochs=2, processes=2),
            partition=part, eval_indices=ev, rng=5, verbose=False, checkpoint=ckpt,
        )
        m_res = make_model(task)
        r_res = train_data_parallel(
            m_res, SEALDataset(task, rng=0), tr,
            dconfig(num_shards=2, epochs=4, processes=2),
            partition=part, eval_indices=ev, rng=5, verbose=False, checkpoint=ckpt,
        )
        assert r_res.resumed_from_epoch == 2
        assert r_res.losses == r_full.losses
        assert_same_weights(m_full, m_res)

    def test_clean_run_never_aborts_and_every_rank_reports(
        self, task, split, monkeypatch
    ):
        """Aborting the barrier as the final step barrier releases can
        break a worker's wait before it reports; a clean run must not."""
        import multiprocessing.synchronize as mp_sync

        from repro import obs

        aborts = []
        real_abort = mp_sync.Barrier.abort

        def spy(barrier):
            aborts.append(barrier)
            real_abort(barrier)

        monkeypatch.setattr(mp_sync.Barrier, "abort", spy)
        tr, _ = split
        config = dconfig(num_shards=2, processes=2)
        with obs.capture() as reg:
            train_data_parallel(
                make_model(task), SEALDataset(task, rng=0), tr, config,
                rng=5, verbose=False,
            )
        assert aborts == []
        # Every rank observes every step, so the count proves both
        # workers' registries reached the parent.
        steps = reg.counters["distributed.steps"]
        assert reg.histograms["distributed.shard.step_seconds"].count == 2 * steps
        assert reg.counters["distributed.shard.links"] == len(tr) * config.epochs
        assert reg.phase_counts["forward"] >= steps

    def test_worker_failure_surfaces_as_runtime_error(
        self, task, split, monkeypatch
    ):
        """A crashing shard worker aborts the barrier and names its error."""
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("crash injection via monkeypatch needs fork start method")
        tr, _ = split

        def poisoned(model, dataset, mine, n_global):
            raise ValueError("injected shard failure")

        monkeypatch.setattr(trainer_mod, "_shard_step_grads", poisoned)
        with pytest.raises(RuntimeError, match="shard worker failed"):
            train_data_parallel(
                make_model(task),
                SEALDataset(task, rng=0),
                tr,
                dconfig(num_shards=2, processes=2, barrier_timeout=30.0),
                rng=5,
                verbose=False,
            )


class TestPhaseSeconds:
    def test_in_process_times_forward_and_backward(self, task, split, dataset):
        tr, _ = split
        ref = train(
            make_model(task), SEALDataset(task, rng=0), tr,
            TrainConfig(epochs=1, batch_size=16, lr=3e-3), rng=5, verbose=False,
        )
        got = train_data_parallel(
            make_model(task), dataset, tr,
            dconfig(num_shards=1, processes=0, epochs=1), rng=5, verbose=False,
        )
        assert got.phase_seconds["forward"] > 0
        assert got.phase_seconds["backward"] > 0
        assert set(got.phase_seconds) == set(ref.phase_seconds)
