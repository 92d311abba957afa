"""Data-parallel SEAL training over a sharded graph.

:func:`train_data_parallel` runs :func:`repro.seal.train`'s own loop
(:func:`repro.seal.trainer.train_with_step`) with a sharded gradient
step in place of the local one. The loop keeps everything but the batch
gradient — Adam, guard, clipping, evaluation, logging, checkpoints,
resume — so those rules are the same for both
trainers by construction. Each global mini-batch comes from the *same*
shuffle stream :func:`repro.seal.train` uses. The sharded step groups
it by link owner and has every shard compute the gradient of its
group's loss scaled by ``n_shard / n_batch``, so the ordered sum of
shard losses *is* the batch's mean cross-entropy and the ordered sum of
shard gradient slabs *is* the batch gradient. The step then reduces the
slabs through a :class:`~repro.store.ParameterBuffer` in rank order and
hands the gradient to the loop.

This module keeps only what is particular to sharding: partitioning,
the buffer, worker spawn and teardown, the barriers, worker-failure
handling and the per-shard reports.

Bit-identity contract
---------------------
* ``num_shards=1, processes=0`` reproduces :func:`repro.seal.train`
  bit-for-bit (the ×1.0 loss scale is IEEE-exact).
* ``processes=K`` (one OS process per shard, gradients exchanged
  through the buffer with a barrier per step) is bit-identical to
  ``processes=0`` with the same partition: both modes run the same
  per-shard forward/backward on the same shard-local graphs and the
  same strict-rank-order reduction.
* Any ``K`` is bit-identical to any other ``K`` *up to the grouping*:
  the per-step float sequence is partition-defined, so K=2 and K=4 of
  the same partition seed agree with each other through the K=1
  reference only when their reductions commute exactly — which the
  tests pin down per K against the in-process reference.
* Resume goes through the existing :mod:`repro.seal.checkpoint`
  bundles: the parent owns model, optimizer and every RNG stream, so a
  mid-run bundle restores into either mode bit-identically.

Workers consume shard-local links through the existing
``SEALDataset``/``build_packed_samples`` store path against their
shard's mmap graph (opened zero-copy); extraction inside a worker is
in-process, and the parallelism is across shards.

``TrainResult.phase_seconds`` has :func:`repro.seal.train`'s keys. In
process, each shard's forward and backward time lands in ``forward``
and ``backward``, and the ordered reduce counts as backward. With
``processes=K`` the shards run in the workers, so the parent's wait
for them lands in ``data``. Either way every shard step records
``distributed.shard.step_seconds`` and ``distributed.shard.links`` through
:mod:`repro.obs`; while the parent's obs is enabled, each worker records
into its own registry and sends it with its final report, and the parent
merges it (so the workers' phases appear in the parent's registry).
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import tempfile
import time
from dataclasses import dataclass
from threading import BrokenBarrierError
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.data.loader import epoch_batches, usable_cores
from repro.nn.dtype import resolve_dtype, set_compute_dtype
from repro.nn.losses import cross_entropy
from repro.nn.module import Module
from repro.seal.checkpoint import CheckpointConfig
from repro.seal.dataset import SEALDataset
from repro.seal.results import TrainResult
from repro.seal.trainer import GradientStep, TrainConfig, train_with_step
from repro.store.parambuf import CMD_ABORT, CMD_RUN, ParameterBuffer
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, derive, generator_state, restore_generator_state
from repro.utils.timing import Stopwatch

from repro.distributed.partition import GraphPartition, partition_graph, shard_task

__all__ = ["DistributedConfig", "train_data_parallel"]

logger = get_logger("distributed.trainer")


@dataclass
class DistributedConfig(TrainConfig):
    """Hyperparameters of a data-parallel run (extends TrainConfig).

    ``processes=0`` runs every shard sequentially in the calling process
    — the reference mode used for bit-identity testing and single-core
    hosts; ``processes=num_shards`` spawns one worker process per shard.
    """

    num_shards: int = 2
    processes: int = 0  # 0 = in-process reference; otherwise must equal num_shards
    #: seconds any step barrier may wait before the run is
    #: declared wedged
    barrier_timeout: float = 300.0


def _named_arrays(model: Module) -> Dict[str, np.ndarray]:
    return {name: p.data for name, p in model.named_parameters()}


def _load_params(named, values: Dict[str, np.ndarray]) -> None:
    for name, p in named:
        p.data[...] = values[name]


def _shard_step_grads(
    model: Module,
    dataset: SEALDataset,
    mine: np.ndarray,
    n_global: int,
    watch: Optional[Stopwatch] = None,
):
    """One shard's contribution to one global step.

    Returns ``(grads, loss, count)`` for :meth:`ParameterBuffer.put_grads`:
    the gradients of ``mean_CE(shard group) * (len(group) / n_global)``.
    Empty groups contribute ``(None, 0.0, 0)`` — a zero slab — and a
    non-finite shard loss ships ``None`` grads so the poison reaches the
    parent only through the loss total the guard inspects. Forward and
    backward time goes into ``watch``'s segments of those names.
    """
    t0 = time.perf_counter()
    grads, loss_val = None, 0.0
    if mine.size:
        watch = watch or Stopwatch()
        batch, labels = dataset.batch(mine)
        with watch.segment("forward"), obs.trace("forward"):
            model.zero_grad()
            logits = model(batch)
            loss = cross_entropy(logits, labels) * (float(mine.size) / float(n_global))
        loss_val = float(loss.data)
        if np.isfinite(loss_val):
            with watch.segment("backward"), obs.trace("backward"):
                loss.backward()
            grads = {name: p.grad for name, p in model.named_parameters()}
    obs.count("distributed.shard.links", int(mine.size))
    obs.observe("distributed.shard.step_seconds", time.perf_counter() - t0)
    return grads, loss_val, int(mine.size)


def _worker_main(
    rank: int,
    model: Module,
    task,
    owned_links: np.ndarray,
    train_indices: np.ndarray,
    config: DistributedConfig,
    start_epoch: int,
    shuffle_state: dict,
    buffer_meta,
    barrier,
    report_queue,
    dataset_rng: RngLike,
    record: bool,
) -> None:
    """Shard worker: replicate the global batch schedule, push gradients.

    Owns a model replica and the shard-local dataset; replays the same
    shuffle stream as the parent (restored from ``shuffle_state``), so
    each global batch is reconstructed locally and filtered to owned
    links without any index traffic. Per step: write grads →
    barrier A → barrier B → read command + fresh params. Every run
    trains to ``config.epochs``, so the worker knows its last step
    without being told. With ``record``
    (the parent's obs is enabled) the worker's metrics go into a fresh
    registry whose delta rides in the final report.
    """
    buffer = ParameterBuffer.attach(buffer_meta)
    # The dtype policy is thread-local state and does not survive the
    # spawn — re-activate it so the replica's tape matches the parent's.
    # The shared ParameterBuffer itself stays float64 regardless.
    set_compute_dtype(resolve_dtype(config.compute_dtype))
    obs.set_registry(obs.MetricsRegistry())
    if record:
        obs.enable()
    else:
        obs.disable()
    try:
        gen = np.random.default_rng(0)
        restore_generator_state(gen, shuffle_state)
        dataset = SEALDataset(task, rng=dataset_rng)
        owned_mask = np.zeros(task.num_links, dtype=bool)
        owned_mask[owned_links] = True
        model.train()
        named = list(model.named_parameters())
        _load_params(named, buffer.get_params())
        stop = False
        for _epoch in range(start_epoch, config.epochs):
            for gbatch in epoch_batches(train_indices, config.batch_size, gen):
                mine = gbatch[owned_mask[gbatch]]
                grads, loss, count = _shard_step_grads(
                    model, dataset, mine, len(gbatch)
                )
                buffer.put_grads(rank, grads, loss, count)
                barrier.wait(config.barrier_timeout)  # A: grads ready
                barrier.wait(config.barrier_timeout)  # B: params ready
                if buffer.get_command() == CMD_ABORT:
                    stop = True
                    break
                _load_params(named, buffer.get_params())
            if stop:
                break
        report_queue.put({"rank": rank, "metrics": obs.get_registry().delta()})
    except BrokenBarrierError:
        # Parent aborted (its exception propagates there) — exit quietly.
        pass
    except BaseException as exc:  # pragma: no cover - exercised via fault tests
        try:
            report_queue.put({"rank": rank, "error": f"{type(exc).__name__}: {exc}"})
        except Exception:
            pass
        try:
            barrier.abort()
        except Exception:
            pass
    finally:
        buffer.close()


def _check_model_supported(model: Module, config: DistributedConfig) -> None:
    """Reject stochastic-forward models that cannot stay bit-identical.

    An active dropout layer draws from a per-module stream; K replicas
    would each consume their own copy of that stream, diverging from
    the sequential reference. (``num_shards=1, processes=0`` is the
    single-stream case and stays allowed.)
    """
    if config.num_shards == 1 and config.processes == 0:
        return
    for i, mod in enumerate(model.modules()):
        rng = getattr(mod, "_rng", None)
        if isinstance(rng, np.random.Generator) and float(getattr(mod, "p", 0.0)) > 0.0:
            raise ValueError(
                "data-parallel training does not support modules with an "
                f"active stochastic forward (module {i}: "
                f"{type(mod).__name__} with p={mod.p}); set dropout to 0"
            )


class _ShardedStep(GradientStep):
    """Owner grouping → per-shard gradients → ordered ``ParameterBuffer`` reduce.

    In process, every shard's gradient is computed here in turn. With
    workers, each worker computes its own shard's (barrier A: grads
    ready); after the loop's optimizer step the parent publishes the
    params and a run/abort command (barrier B: params ready).
    """

    def __init__(
        self,
        model: Module,
        dataset: SEALDataset,
        partition: GraphPartition,
        config: DistributedConfig,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.partition = partition
        self.config = config
        self.checkpoint_tags = {"num_shards": config.num_shards}
        self.finished = False
        self.buffer: Optional[ParameterBuffer] = None
        self.barrier = None
        self.report_queue = None
        self.workers: List = []
        self.reports: List[dict] = []
        self._tmp: Optional[tempfile.TemporaryDirectory] = None

    def start(self, train_indices, shuffle_rng, start_epoch) -> None:
        config, task = self.config, self.dataset.task
        self.train_indices = train_indices
        self.shuffle_rng = shuffle_rng
        self.named = list(self.model.named_parameters())
        spec = [(name, p.data.shape) for name, p in self.named]
        if config.processes == 0:
            self.buffer = ParameterBuffer.local(spec, config.num_shards)
            self.shard_datasets = []
            self.owned_masks = []
            for shard in self.partition.shards:
                self.shard_datasets.append(
                    SEALDataset(shard_task(task, shard), rng=self.dataset.rng_seed)
                )
                mask = np.zeros(task.num_links, dtype=bool)
                mask[shard.owned_links] = True
                self.owned_masks.append(mask)
            return
        partition = self.partition
        if any(not s.graph.is_mmap for s in partition.shards):
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-partition-")
            partition.save(self._tmp.name)
            partition = GraphPartition.open(self._tmp.name, mmap=True)
        self.buffer = ParameterBuffer.create(spec, config.num_shards)
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork") if "fork" in methods else mp.get_context()
        self.barrier = ctx.Barrier(config.num_shards + 1)
        self.report_queue = ctx.Queue()
        self.buffer.put_params(_named_arrays(self.model))
        self.buffer.set_command(CMD_RUN)
        shuffle_state = generator_state(shuffle_rng)
        for rank, shard in enumerate(partition.shards):
            w = ctx.Process(
                target=_worker_main,
                args=(
                    rank,
                    self.model,
                    shard_task(task, shard),
                    shard.owned_links,
                    train_indices,
                    config,
                    start_epoch,
                    shuffle_state,
                    self.buffer.meta,
                    self.barrier,
                    self.report_queue,
                    self.dataset.rng_seed,
                    obs.enabled(),
                ),
                daemon=True,
                name=f"repro-shard-{rank}",
            )
            w.start()
            self.workers.append(w)

    def batches(self) -> Iterable:
        return epoch_batches(self.train_indices, self.config.batch_size, self.shuffle_rng)

    def __call__(self, gbatch: np.ndarray, watch: Stopwatch) -> float:
        if self.workers:
            t0 = time.perf_counter()
            self.barrier.wait(self.config.barrier_timeout)  # A: grads ready
            obs.observe("distributed.barrier_wait_seconds", time.perf_counter() - t0)
        else:
            for rank, dataset in enumerate(self.shard_datasets):
                mine = gbatch[self.owned_masks[rank][gbatch]]
                grads, loss, count = _shard_step_grads(
                    self.model, dataset, mine, len(gbatch), watch
                )
                self.buffer.put_grads(rank, grads, loss, count)
        with watch.segment("backward"):
            loss_val = self.buffer.reduce_loss()
            if np.isfinite(loss_val):
                reduced = self.buffer.reduce_grads()
                for name, p in self.named:
                    p.grad = reduced[name]
        return loss_val

    def after_step(self, abort: bool) -> None:
        obs.count("distributed.steps")
        if self.workers:
            self.buffer.put_params(_named_arrays(self.model))
            self.buffer.set_command(CMD_ABORT if abort else CMD_RUN)
            self.barrier.wait(self.config.barrier_timeout)  # B: params ready

    def after_epoch(self, last: bool) -> None:
        self.finished = last

    def close(self) -> None:
        # A clean run leaves the barrier alone: aborting it while the
        # workers are still waking from the final barrier breaks their
        # wait, and they exit without reporting. Any other exit aborts at
        # once, so a failing run never waits out the drain.
        if self.barrier is not None and not self.finished:
            try:
                self.barrier.abort()
            except Exception:
                pass
        # Drain before joining: a worker exits only once its report has
        # been flushed into the queue. A worker that failed or saw the
        # barrier break reports at most an error, so stop once all exited.
        deadline = time.monotonic() + 30.0
        while len(self.reports) < len(self.workers) and time.monotonic() < deadline:
            exited = not any(w.is_alive() for w in self.workers)
            try:
                self.reports.append(self.report_queue.get(timeout=0.1))
            except queue.Empty:
                if exited:
                    break
        for report in self.reports:
            if "metrics" in report:
                obs.merge(report["metrics"])
        for w in self.workers:
            w.join(timeout=10.0)
        for w in self.workers:
            if w.is_alive():  # pragma: no cover - stuck worker
                w.terminate()
                w.join(timeout=10.0)
        if self.buffer is not None:
            self.buffer.close()
        if self._tmp is not None:
            self._tmp.cleanup()


def train_data_parallel(
    model: Module,
    dataset: SEALDataset,
    train_indices: Sequence[int],
    config: DistributedConfig,
    *,
    partition: Optional[GraphPartition] = None,
    eval_indices: Optional[Sequence[int]] = None,
    rng: RngLike = 0,
    verbose: bool = True,
    checkpoint: Optional[CheckpointConfig] = None,
) -> TrainResult:
    """Train ``model`` data-parallel over ``config.num_shards`` shards.

    Runs :func:`repro.seal.train`'s loop (guards, logging, eval
    cadence, checkpointing) with the gradient work
    sharded. See the module docstring for the bit-identity contract.

    ``config.compute_dtype`` behaves as in :func:`repro.seal.train`:
    replicas run their tapes under the policy (workers re-activate it
    after the spawn), while gradient reduction through the shared
    :class:`~repro.store.parambuf.ParameterBuffer` stays float64, so the
    summed-slab float sequence — and therefore shard determinism — is
    unchanged by the policy.

    Parameters beyond :func:`repro.seal.train`'s:

    partition: a prebuilt :class:`GraphPartition` of ``dataset.task``;
        hash-partitioned on the fly when omitted. In
        multi-process mode an unsaved partition is persisted to a
        temporary directory first so workers open their shard graphs
        zero-copy.
    """
    if config.num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if config.processes not in (0, config.num_shards):
        raise ValueError(
            f"processes must be 0 (in-process) or num_shards="
            f"{config.num_shards}, got {config.processes}"
        )
    if config.class_weights is not None:
        raise ValueError(
            "class_weights are not supported in data-parallel training: "
            "weighted cross-entropy normalizes by the batch's weight sum, "
            "which does not decompose exactly across shard groups"
        )
    _check_model_supported(model, config)
    task = dataset.task
    if partition is None:
        part_seed = int(derive(rng, "partition").integers(0, 2**31 - 1))
        partition = partition_graph(task, config.num_shards, seed=part_seed)
    if partition.num_shards != config.num_shards:
        raise ValueError(
            f"partition has {partition.num_shards} shards, "
            f"config.num_shards={config.num_shards}"
        )
    if partition.num_links != task.num_links:
        raise ValueError(
            f"partition covers {partition.num_links} links, "
            f"task has {task.num_links}"
        )
    if config.processes > 0 and usable_cores() < 2:
        logger.warning(
            "processes=%d requested on a host with %d usable core(s); "
            "workers will timeshare one core",
            config.processes, usable_cores(),
        )

    step = _ShardedStep(model, dataset, partition, config)
    try:
        result = train_with_step(
            model,
            dataset,
            train_indices,
            config,
            step,
            eval_indices=eval_indices,
            rng=rng,
            verbose=verbose,
            checkpoint=checkpoint,
        )
    except BrokenBarrierError:
        # A worker died or a barrier timed out: the loop has persisted
        # what completed; surface whatever the workers managed to report.
        errors = [r["error"] for r in step.reports if "error" in r]
        detail = f": {'; '.join(errors)}" if errors else ""
        raise RuntimeError(
            f"distributed training aborted — a shard worker failed or a "
            f"barrier timed out after {config.barrier_timeout}s{detail}"
        ) from None
    return result

