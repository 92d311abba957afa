"""Mini-batch training loop for SEAL link classifiers.

Mirrors the paper's training protocol: Adam, cross-entropy over link
classes, a fixed number of epochs (the paper sweeps 2..12 and settles on
10), shuffled mini-batches. Optionally evaluates on a held-out set after
every epoch — that per-epoch AUC trace is exactly what Figs. 3–6 plot.

Each epoch logs one progress line to the ``repro.seal.trainer`` logger
(``verbose=False`` silences it). The forward/backward/optimizer phases
are timed into the returned :class:`TrainResult` and traced via
:mod:`repro.obs` when enabled.

One loop
--------
:func:`train_with_step` is the only training loop. A
:class:`GradientStep` fills every parameter's ``.grad`` with one batch's
gradient and returns the batch loss; the loop does everything else.
:func:`train` runs the local step (forward and backward of each
:class:`~repro.data.DataLoader` batch); the data-parallel trainer
(:func:`repro.distributed.train_data_parallel`) runs a sharded one, so
both share every guard, resume and checkpoint rule by construction.

Fault tolerance
---------------
Two mechanisms keep the long multi-run sweeps (epoch traces, tuning
loops) alive:

* ``checkpoint=CheckpointConfig(dir, every)`` writes a resumable
  :class:`~repro.seal.checkpoint.Checkpoint` bundle every N completed
  epochs (keeping the newest ``KEEP_LAST``) — and always on the final
  epoch, or when an exception (``KeyboardInterrupt``, a non-finite
  abort, a failed shard worker) ends the run. A rerun with the same config finds the
  newest bundle and continues **bit-identically** to an uninterrupted
  run: same losses, same eval AUC/AP trace, same final weights (model,
  name-keyed optimizer moments and the shuffle RNG stream are all
  restored exactly).
* A non-finite guard inspects every batch's loss and gradient norm.
  A NaN/inf step is *skipped* (the optimizer's moments never see the
  poison), counted into ``TrainResult.nonfinite_steps`` and the
  ``train.nonfinite_steps`` obs counter, and after
  ``MAX_NONFINITE_STEPS`` consecutive bad steps the run aborts with
  :class:`NonFiniteLossError` instead of silently corrupting weights —
  writing a final checkpoint first when checkpointing is on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro import obs
from repro.data.loader import DataLoader
from repro.nn.dtype import FLOAT64, cast_module, compute_dtype, resolve_dtype
from repro.nn.losses import cross_entropy
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.seal.checkpoint import (
    Checkpoint,
    CheckpointConfig,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from repro.seal.dataset import SEALDataset
from repro.seal.evaluator import EvalResult, evaluate
from repro.seal.results import TrainResult
from repro.utils.logging import get_logger
from repro.utils.rng import (
    RngLike,
    derive,
    generator_state,
    restore_generator_state,
)
from repro.utils.timing import Stopwatch

__all__ = [
    "TrainConfig",
    "TrainResult",
    "NonFiniteLossError",
    "GradientStep",
    "train",
    "train_with_step",
]

logger = get_logger("seal.trainer")

#: global gradient-norm clip applied before every optimizer step
GRAD_CLIP = 5.0
#: links per no-grad batch of the per-epoch held-out evaluation
EVAL_BATCH_SIZE = 64
#: abort with NonFiniteLossError after this many *consecutive* optimizer
#: steps skipped by the non-finite loss/gradient guard
MAX_NONFINITE_STEPS = 5


class NonFiniteLossError(RuntimeError):
    """Training aborted: too many consecutive non-finite loss/grad steps."""


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    ``lr``, and the model's hidden width / sort-k, are the auto-tuned
    hyperparameters of paper Table I; the rest are held at the SEAL
    defaults.
    """

    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    class_weights: Optional[np.ndarray] = None
    restore_best: bool = False  # reload the best-AUC epoch's weights at the end
    num_workers: int = 0  # only 0; kept for benchmarks/e2e/workloads.py until it drops it
    #: compute-dtype policy for forward/backward ("float64" or "float32").
    #: "float32" casts the model's working copies down and activates the
    #: reduced-precision tape; Adam keeps float64 master weights, so
    #: checkpoints stay lossless. The default is bit-identical to the
    #: pre-policy trainer.
    compute_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.num_workers != 0:
            raise ValueError(
                f"num_workers must be 0 (extraction is in-process), got {self.num_workers}"
            )


class GradientStep:
    """The batch-gradient half of training; :func:`train_with_step` does the rest.

    The loop calls :meth:`start` once, after any resume and only when
    epochs remain. Each epoch it iterates :meth:`batches` and calls the
    step on every batch, then :meth:`after_step` once the optimizer has
    stepped or the guard has skipped the step. It calls
    :meth:`after_epoch` once the epoch's evaluation and checkpoint are
    done, and :meth:`close` however the loop ends.
    """

    #: entries every checkpoint records in ``train_config``; resuming a
    #: checkpoint that recorded another value logs a warning
    checkpoint_tags: Dict[str, object] = {}

    def start(self, train_indices: np.ndarray, shuffle_rng, start_epoch: int) -> None:
        """Prepare to train ``train_indices`` in ``shuffle_rng``'s order from ``start_epoch``.

        Each epoch's batches are :func:`~repro.data.loader.epoch_batches`
        of ``train_indices`` under ``shuffle_rng``.
        """
        raise NotImplementedError

    def batches(self) -> Iterable:
        """The next epoch's batches, in training order."""
        raise NotImplementedError

    def __call__(self, batch, watch: Stopwatch) -> float:
        """Set every parameter's ``.grad`` to ``batch``'s gradient; return its loss.

        Forward and backward time goes into ``watch``'s segments of those
        names. After a non-finite loss, ``.grad`` may be left unset.
        """
        raise NotImplementedError

    def after_step(self, abort: bool) -> None:
        """The parameters are final for this step; ``abort`` ends the run."""

    def after_epoch(self, last: bool) -> None:
        """The epoch is complete; ``last`` when no epoch follows it."""

    def close(self) -> None:
        """Release what :meth:`start` acquired; runs however the loop ends."""


class _LocalStep(GradientStep):
    """Forward and backward of the whole batch, fed by a :class:`DataLoader`."""

    def __init__(self, model: Module, dataset: SEALDataset, config: TrainConfig) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config
        self.loader: Optional[DataLoader] = None
        self.loss = None

    def start(self, train_indices, shuffle_rng, start_epoch) -> None:
        self.loader = DataLoader(
            self.dataset, train_indices, self.config.batch_size, rng=shuffle_rng
        )

    def batches(self) -> Iterable:
        return self.loader

    def __call__(self, batch, watch: Stopwatch) -> float:
        graphs, labels = batch
        with watch.segment("forward"), obs.trace("forward"):
            self.model.zero_grad()
            logits = self.model(graphs)
            # Rebinding frees the previous step's tape only once this
            # forward has built its own. Freed any earlier, its memory goes
            # back to the OS and is faulted in again every step (~15% of
            # the step time of the Table III PrimeKG cell).
            self.loss = cross_entropy(logits, labels, weight=self.config.class_weights)
        loss_val = float(self.loss.data)
        if np.isfinite(loss_val):
            with watch.segment("backward"), obs.trace("backward"):
                self.loss.backward()
        return loss_val


def _training_generators(model: Module, shuffle_rng) -> Dict[str, object]:
    """Every RNG stream a resumed run must rewind, keyed stably.

    ``shuffle`` is the trainer-derived batch-order stream; dropout layers
    (any module holding a ``_rng`` generator) register by module position
    so stochastic regularization also replays bit-identically.
    """
    gens: Dict[str, object] = {"shuffle": shuffle_rng}
    for i, mod in enumerate(model.modules()):
        mod_gen = getattr(mod, "_rng", None)
        if isinstance(mod_gen, np.random.Generator):
            gens[f"module{i}"] = mod_gen
    return gens


def train(
    model: Module,
    dataset: SEALDataset,
    train_indices: Sequence[int],
    config: TrainConfig,
    *,
    eval_indices: Optional[Sequence[int]] = None,
    rng: RngLike = 0,
    verbose: bool = True,
    checkpoint: Optional[CheckpointConfig] = None,
) -> TrainResult:
    """Train ``model`` in place; returns the :class:`TrainResult`.

    Parameters
    ----------
    model: a DGCNN-family classifier taking a GraphBatch.
    dataset: materialized SEAL samples.
    train_indices: links used for optimization (must be non-empty).
    config: hyperparameters.
    eval_indices: when given, run held-out evaluation after every epoch
        (feeds the epoch-sweep figures).
    rng: shuffling stream (training is deterministic given model init,
        data and this seed). Every epoch serves a fresh permutation of
        ``train_indices`` in ``config.batch_size`` chunks
        (:func:`~repro.data.loader.epoch_batches`), the paper's shuffled
        mini-batches.
    verbose: log one line per epoch, and the best epoch at the end, to
        the ``repro.seal.trainer`` logger (visible after
        ``utils.logging.set_verbosity("INFO")``); ``False`` logs none.
    checkpoint: crash-safety policy. When set, resumable bundles are
        written into ``checkpoint.dir`` every ``checkpoint.every``
        epochs (and on interrupt/abort), and — unless
        ``checkpoint.resume`` is off — an existing bundle is restored
        and training continues from it, bit-identical to an
        uninterrupted run.

    ``config.compute_dtype`` selects the precision policy for the whole
    run: ``"float32"`` casts the model down and runs forward, backward
    and evaluation under the reduced tape (Adam holds float64 masters;
    resuming re-syncs parameters from them, so a checkpoint taken under
    one policy restores losslessly under another). ``"float64"`` (the
    default) is bit-identical to the pre-policy trainer.
    """
    return train_with_step(
        model,
        dataset,
        train_indices,
        config,
        _LocalStep(model, dataset, config),
        eval_indices=eval_indices,
        rng=rng,
        verbose=verbose,
        checkpoint=checkpoint,
    )


def train_with_step(
    model: Module,
    dataset: SEALDataset,
    train_indices: Sequence[int],
    config: TrainConfig,
    step: GradientStep,
    *,
    eval_indices: Optional[Sequence[int]] = None,
    rng: RngLike = 0,
    verbose: bool = True,
    checkpoint: Optional[CheckpointConfig] = None,
) -> TrainResult:
    """The training loop around ``step``; arguments as in :func:`train`.

    Owns everything but the batch gradient: validation, the dtype
    policy, Adam, progress logging, RNG registration, resume, the non-finite
    guard with clipping and the optimizer step, evaluation, checkpoints
    and ``restore_best``.
    """
    policy = resolve_dtype(config.compute_dtype)
    if policy != FLOAT64:
        cast_module(model, policy)
    with compute_dtype(policy):
        return _train_loop(
            model, dataset, train_indices, config, step,
            eval_indices, rng, verbose, checkpoint,
        )


def _train_loop(
    model: Module,
    dataset: SEALDataset,
    train_indices: Sequence[int],
    config: TrainConfig,
    step: GradientStep,
    eval_indices: Optional[Sequence[int]],
    rng: RngLike,
    verbose: bool,
    checkpoint: Optional[CheckpointConfig],
) -> TrainResult:
    """Loop body of :func:`train_with_step`; runs under the active dtype policy."""
    if config.epochs <= 0:
        raise ValueError("epochs must be positive")
    train_indices = np.asarray(train_indices, dtype=np.int64)
    if train_indices.size == 0:
        raise ValueError(
            "train_indices is empty — an epoch over zero batches would "
            "silently record a 0.0 loss"
        )
    optimizer = Adam(model.named_parameters(), lr=config.lr)
    if config.restore_best and eval_indices is None:
        raise ValueError("restore_best requires eval_indices")
    shuffle_rng = derive(rng, "shuffle")
    gens = _training_generators(model, shuffle_rng)
    result = TrainResult()
    watch = Stopwatch()
    best_state = None
    start_epoch = 0
    last_written = 0
    snapshot: Optional[Checkpoint] = None

    latest = None
    if checkpoint is not None and checkpoint.resume:
        latest = latest_checkpoint(checkpoint.dir)
    if latest is not None:
        ck = load_checkpoint(latest)
        model.load_state_dict(ck.model_state)
        optimizer.load_state_dict(ck.optimizer_state)
        for key, state in ck.rng_states.items():
            if key in gens:
                restore_generator_state(gens[key], state)
        # A bundle saved under a reduced policy stores reduced working
        # copies in model_state but lossless float64 masters in the
        # optimizer state — restore parameters from the masters so a
        # policy change between save and resume loses nothing.
        optimizer.sync_master_params()
        obs.count("checkpoint.resumes")
        if obs.enabled():
            obs.get_registry().gauge("checkpoint.resumed_from_epoch", ck.epoch)
        logger.info(
            "resumed from %s: %d/%d epochs already complete",
            latest.name, ck.epoch, config.epochs,
        )
        for key, value in step.checkpoint_tags.items():
            if ck.train_config.get(key, value) != value:
                logger.warning(
                    "resuming a checkpoint taken with %s=%s under %s=%s — losses "
                    "remain correct but the float sequence differs from an "
                    "uninterrupted run",
                    key, ck.train_config[key], key, value,
                )
        result = ck.result
        result.resumed_from_epoch = ck.epoch
        best_state = ck.best_state
        start_epoch = last_written = ck.epoch
        snapshot = ck

    epochs = range(start_epoch, config.epochs)

    model.train()

    def write_snapshot(snap: Checkpoint) -> None:
        nonlocal last_written
        save_checkpoint(checkpoint_path(checkpoint.dir, snap.epoch), snap)
        prune_checkpoints(checkpoint.dir)
        last_written = snap.epoch

    bad_streak = 0
    params = model.parameters()
    try:
        if epochs:
            step.start(train_indices, shuffle_rng, start_epoch)
        for epoch in epochs:
            epoch_losses: list = []
            epoch_start = watch.totals["epoch"]
            with watch.segment("epoch"):
                for batch in step.batches():
                    loss_val = step(batch, watch)
                    abort: Optional[NonFiniteLossError] = None
                    with watch.segment("optimizer"), obs.trace("optimizer"):
                        step_ok = bool(np.isfinite(loss_val))
                        grad_norm = None
                        if step_ok:
                            grad_norm = clip_grad_norm(params, GRAD_CLIP)
                            step_ok = bool(np.isfinite(grad_norm))
                        if step_ok:
                            optimizer.step()
                            epoch_losses.append(loss_val)
                            bad_streak = 0
                        else:
                            bad_streak += 1
                            result.nonfinite_steps += 1
                            obs.count("train.nonfinite_steps")
                            logger.warning(
                                "non-finite step skipped at epoch %d (loss=%s, "
                                "grad_norm=%s; %d consecutive)",
                                epoch + 1, loss_val, grad_norm, bad_streak,
                            )
                            if bad_streak >= MAX_NONFINITE_STEPS:
                                abort = NonFiniteLossError(
                                    f"{bad_streak} consecutive non-finite steps "
                                    f"at epoch {epoch + 1} (last loss={loss_val}, "
                                    f"grad_norm={grad_norm}); weights are intact "
                                    "up to the last finite step — check lr "
                                    f"({config.lr}) and input features"
                                )
                    step.after_step(abort is not None)
                    if abort is not None:
                        raise abort
            result.losses.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)
            result.epoch_seconds.append(watch.totals["epoch"] - epoch_start)
            result.epochs_run = epoch + 1

            if eval_indices is not None:
                with watch.segment("eval"):
                    epoch_eval: EvalResult = evaluate(
                        model,
                        dataset,
                        eval_indices,
                        batch_size=EVAL_BATCH_SIZE,
                    )
                result.eval_auc.append(epoch_eval.auc)
                result.eval_ap.append(epoch_eval.ap)
                if result.best_epoch is None or epoch_eval.auc > result.eval_auc[result.best_epoch]:
                    result.best_epoch = epoch
                    if config.restore_best:
                        best_state = model.state_dict()
            # ``data`` is the epoch time outside the three compute phases:
            # extraction, collation and queue waits. After a resume the
            # breakdown covers the resumed process's share of the run only.
            totals = watch.totals
            compute = totals["forward"] + totals["backward"] + totals["optimizer"]
            result.phase_seconds = {
                "forward": totals["forward"],
                "backward": totals["backward"],
                "optimizer": totals["optimizer"],
                "data": max(totals["epoch"] - compute, 0.0),
                "eval": totals["eval"],
                "total": totals["epoch"] + totals["eval"],
            }
            if checkpoint is not None:
                snapshot = Checkpoint(
                    epoch=epoch + 1,
                    model_state=model.state_dict(),
                    optimizer_state=optimizer.state_dict(),
                    rng_states={k: generator_state(g) for k, g in gens.items()},
                    result=copy.deepcopy(result),
                    best_state=best_state if config.restore_best else None,
                    train_config={
                        "epochs": config.epochs,
                        "batch_size": config.batch_size,
                        "lr": config.lr,
                        "compute_dtype": config.compute_dtype,
                        **step.checkpoint_tags,
                    },
                )
                if (epoch + 1) % checkpoint.every == 0 or epoch + 1 == config.epochs:
                    write_snapshot(snapshot)
            if verbose:
                line = f"epoch {epoch + 1} loss={result.losses[-1]:.4f}"
                if result.eval_auc:
                    line += f" auc={result.eval_auc[-1]:.4f} ap={result.eval_ap[-1]:.4f}"
                logger.info(line)
            step.after_epoch(epoch + 1 == config.epochs)
    finally:
        step.close()
        # Persist the last completed epoch however the loop ended — an
        # exception between cadence writes included — so a rerun resumes
        # instead of starting over.
        if checkpoint is not None and snapshot is not None and snapshot.epoch > last_written:
            write_snapshot(snapshot)
    if verbose and result.best_epoch is not None:
        logger.info(
            "done: best epoch %d auc=%.4f",
            result.best_epoch + 1, result.eval_auc[result.best_epoch],
        )
    if config.restore_best and best_state is not None:
        model.load_state_dict(best_state)
        logger.info("restored best epoch %d (auc=%.4f)", result.best_epoch + 1, result.best_auc)
    return result

