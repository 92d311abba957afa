"""Batch-serving DataLoader with optional multiprocessing extraction.

The loader owns the full data path of the SEAL pipeline: a
:class:`~repro.data.samplers.Sampler` decides the index batches, missing
subgraphs are extracted (serially, or by a worker pool when
``num_workers > 0``) into the dataset's packed
:class:`~repro.data.store.SubgraphStore`, and collation slices the store
directly into preallocated :class:`~repro.graph.batch.GraphBatch`
arrays.

Determinism guarantee
---------------------
Extraction is keyed by ``(dataset seed, link index)`` — see
:mod:`repro.data.extraction` — and collation always happens in the
parent process in sampler order, so ``num_workers=N`` produces streams
bit-identical to ``num_workers=0`` under the same seed. Workers only
change *when* a subgraph is computed, never *what* it contains.

Parallel mode dispatches chunks of missing links to a persistent
``multiprocessing`` pool in first-need order, keeps at most
``num_workers * prefetch_factor`` chunks in flight (a bounded prefetch
queue), and falls back to serial extraction — with a warning, never an
error — when the platform cannot start workers or a worker crashes.

Zero-copy transport (:mod:`repro.store`)
----------------------------------------
Two copy chains of the original design are gone. *Inbound*: when the
task's graph is path-backed (``Graph.save``/``Graph.open``), workers
receive the storage path instead of a pickled graph and mmap the arrays
read-only — one physical copy of the graph no matter how many workers.
*Outbound*: extracted chunks travel through a
:class:`~repro.store.SampleRing` — workers pack samples columnarly into
a shared-memory slot and return a tiny descriptor; the parent adopts
zero-copy views and frees the slot. Chunks that outgrow their slot (or
hosts without shared memory) fall back to the original pickle path, so
the ring is purely an optimization: ordering and bytes are identical
either way.

Loader phases are traced through :mod:`repro.obs` as ``extraction``
(serial misses), ``queue-wait`` (parent blocked on worker results) and
``collate``. While the parent's obs is enabled, each worker chunk is
recorded into a fresh registry whose delta travels back with the chunk's
result and is merged by the parent, so extraction done in workers is
counted like extraction done in-process.
"""

from __future__ import annotations

import copy
import os
from collections import deque
from contextlib import nullcontext
from multiprocessing import TimeoutError as MpTimeoutError
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.data.samplers import Sampler, SequentialSampler, ShuffleSampler
from repro.data.store import PackedSubgraph, SubgraphStore
from repro.graph.batch import GraphBatch
from repro.nn.kernels import PlanCache
from repro.store.ring import SampleRing
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike

__all__ = ["DataLoader", "collate_from_store", "usable_cores", "warm"]

logger = get_logger("data.loader")


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# One-shot guard for the worker-degrade warning: the condition is a
# property of the host, so repeating it once per DataLoader is noise.
_DEGRADE_WARNED = False

# -- worker-side plumbing ---------------------------------------------- #
# The pool initializer stashes the (task, seed) payload in a module
# global. When the task's graph is path-backed, the payload carries the
# storage path and the worker mmaps the arrays read-only — the graph is
# never pickled and exists once in physical memory. Only in-memory-only
# graphs still ride the pickle path (free under fork, once-per-worker
# under spawn).

_WORKER_STATE: Optional[tuple] = None
_WORKER_RING: Optional[SampleRing] = None


def _worker_init(payload: tuple) -> None:
    global _WORKER_STATE, _WORKER_RING
    # A forked worker inherits the parent's registry and enabled flag;
    # it records only inside the per-chunk capture of _worker_extract.
    obs.disable()
    task, graph_path, seed, ring_meta = payload
    if graph_path is not None:
        from repro.graph.structure import Graph

        task.graph = Graph.open(graph_path, mmap=True)
    _WORKER_STATE = (task, seed)
    _WORKER_RING = None if ring_meta is None else SampleRing.attach(*ring_meta)


def _worker_extract(chunk: List[int], slot: int, record: bool):
    """Extract a chunk of links inside a worker process.

    Uses the batched engine (one multi-source BFS sweep per chunk);
    per-link streams keep results independent of the chunking, so worker
    output stays bit-identical to serial extraction.

    With a ring slot assigned (``slot >= 0``) the samples are packed
    into shared memory and only a descriptor returns; a chunk too big
    for its slot — or a loader without a ring — returns the samples by
    value (the pickle fallback). With ``record`` the chunk's metrics
    return too, as a registry delta (``None`` otherwise).
    """
    from repro.data.extraction import build_packed_samples

    task, seed = _WORKER_STATE
    with obs.capture() if record else nullcontext() as registry:
        samples = build_packed_samples(task, seed, chunk)
    delta = None if registry is None else registry.delta()
    if slot >= 0 and _WORKER_RING is not None:
        header = _WORKER_RING.write(slot, samples)
        if header is not None:
            return ("shm", slot, header, delta)
    return ("pkl", slot, samples, delta)


def collate_from_store(
    store: SubgraphStore, indices: Sequence[int], *, edge_attr_dim: int = 0
) -> GraphBatch:
    """Fuse stored subgraphs into one block-diagonal batch by slice-copy.

    Equivalent to :func:`repro.graph.batch.collate` over the materialized
    graphs, but reads the packed arrays directly: output buffers are
    preallocated once and filled per graph with O(1)-lookup slices.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("cannot collate an empty batch")
    if edge_attr_dim and store.edge_attr_dim and store.edge_attr_dim != edge_attr_dim:
        raise ValueError(
            f"stored edge_attr width {store.edge_attr_dim} != requested {edge_attr_dim}"
        )
    with obs.trace("collate"):
        n_counts = store.node_count[indices]
        e_counts = store.edge_count[indices]
        n_total = int(n_counts.sum())
        e_total = int(e_counts.sum())
        node_off = np.concatenate([[0], np.cumsum(n_counts)[:-1]])

        edge_index = np.empty((2, e_total), dtype=np.int64)
        node_features = np.empty((n_total, store.feature_dim), dtype=store.float_dtype)
        edge_attr = np.zeros((e_total, edge_attr_dim), dtype=store.float_dtype)
        batch = np.repeat(np.arange(len(indices), dtype=np.int64), n_counts)

        copy_attr = bool(edge_attr_dim and store.edge_attr is not None)
        no = 0
        eo = 0
        for j, i in enumerate(indices):
            ns, nc = int(store.node_start[i]), int(n_counts[j])
            es, ec = int(store.edge_start[i]), int(e_counts[j])
            edge_index[:, eo : eo + ec] = store.edge_index[:, es : es + ec] + node_off[j]
            node_features[no : no + nc] = store.features[ns : ns + nc]
            if copy_attr:
                edge_attr[eo : eo + ec] = store.edge_attr[es : es + ec]
            no += nc
            eo += ec

        # The store is append-only within a generation, so the same link
        # indices always collate to array-identical batches: segment
        # plans built for one epoch's batch are valid for every later
        # epoch's. The generation salt keeps plans from surviving a
        # clear()/evict(), after which the same indices may name
        # different subgraphs (e.g. re-extracted against a newer
        # streaming snapshot). The PlanCache itself is lazy — a cache
        # miss costs only the (cheap) shell; the argsorts happen on
        # first use inside the model.
        key = store.plan_salt + indices.tobytes()
        plans = store.plan_lookup(key)
        if plans is None:
            plans = PlanCache(
                edge_index, n_total, batch=batch, num_graphs=len(indices)
            )
            store.plan_store(key, plans)
            obs.count("data.store.plan_cache.misses")
        else:
            obs.count("data.store.plan_cache.hits")
        out = GraphBatch(
            edge_index=edge_index,
            node_features=node_features,
            edge_attr=edge_attr,
            batch=batch,
            num_graphs=len(indices),
            _plan_cache=plans,
        )
    obs.count("graph.collate.batches")
    obs.count("graph.collate.graphs", float(out.num_graphs))
    obs.count("graph.collate.nodes", float(out.num_nodes))
    return out


class DataLoader:
    """Serve ``(GraphBatch, labels)`` mini-batches from a SEAL dataset.

    Parameters
    ----------
    dataset: a :class:`~repro.seal.SEALDataset` (or any object exposing
        ``task``, ``store``, ``rng_seed``, ``ensure_many(indices)`` and
        ``adopt(sample)``).
    indices: link indices to serve (default: the whole dataset). Ignored
        when an explicit ``sampler`` is given.
    batch_size: target batch size (ignored when ``sampler`` is given).
    sampler: explicit :class:`~repro.data.samplers.Sampler`; overrides
        ``indices``/``batch_size``/``shuffle``/``rng``.
    shuffle: build a :class:`ShuffleSampler` instead of sequential.
    rng: seed/stream for the shuffle sampler.
    num_workers: 0 = extract in-process; N > 0 = extract cache misses in
        an N-process pool with chunked dispatch and bounded prefetch.
        When the process can only run on one core, ``num_workers`` is
        auto-degraded to 0 — ``results/BENCH_loader.json`` measured the
        pool as a net slowdown there (speedup 0.853×) — unless
        ``force_workers`` is set.
    prefetch_factor: chunks kept in flight per worker.
    chunk_size: links per worker chunk (default: an even split that keeps
        every worker busy ``2 * prefetch_factor`` times over).
    force_workers: keep the requested ``num_workers`` even on a
        single-core host (tests and benchmarks that exercise the pool
        itself).
    worker_timeout: seconds the parent waits for one worker chunk before
        declaring the pool hung and falling back to serial extraction
        (a *hung* — not dead — worker would otherwise block the epoch
        forever). ``None`` waits unboundedly.
    ring_slot_bytes: capacity of each slot of the shared-memory
        :class:`~repro.store.SampleRing` that worker results travel
        through (default 4 MiB; the ring holds ``num_workers *
        prefetch_factor`` slots, one per in-flight chunk). A chunk that
        does not fit its slot falls back to the pickle path.
    """

    def __init__(
        self,
        dataset,
        indices: Optional[Sequence[int]] = None,
        batch_size: int = 32,
        *,
        sampler: Optional[Sampler] = None,
        shuffle: bool = False,
        rng: RngLike = None,
        num_workers: int = 0,
        prefetch_factor: int = 2,
        chunk_size: Optional[int] = None,
        force_workers: bool = False,
        worker_timeout: Optional[float] = 60.0,
        ring_slot_bytes: int = 4 << 20,
    ):
        if num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if prefetch_factor < 1:
            raise ValueError("prefetch_factor must be >= 1")
        if worker_timeout is not None and worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive (or None)")
        if ring_slot_bytes < 64:
            raise ValueError("ring_slot_bytes must be at least 64")
        if num_workers > 0 and not force_workers and usable_cores() <= 1:
            global _DEGRADE_WARNED
            obs.count("data.loader.workers_degraded")
            if not _DEGRADE_WARNED:
                _DEGRADE_WARNED = True
                logger.warning(
                    "num_workers=%d requested but only 1 usable core: worker "
                    "processes are a measured net slowdown here, degrading to "
                    "num_workers=0 (pass force_workers=True to override)",
                    num_workers,
                )
            num_workers = 0
        self.dataset = dataset
        if sampler is None:
            idx = np.arange(len(dataset)) if indices is None else indices
            if shuffle:
                sampler = ShuffleSampler(idx, batch_size, rng=rng)
            else:
                sampler = SequentialSampler(idx, batch_size)
        self.sampler = sampler
        self.num_workers = int(num_workers)
        self.prefetch_factor = int(prefetch_factor)
        self.chunk_size = chunk_size
        self.worker_timeout = worker_timeout
        self.ring_slot_bytes = int(ring_slot_bytes)
        self._pool = None
        self._pool_broken = False
        self._ring: Optional[SampleRing] = None
        self._ring_broken = False

    # ------------------------------------------------------------------ #
    # sizing / context management
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.sampler)

    def __enter__(self) -> "DataLoader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool and ring (idempotent; serial: no-op)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._ring is not None:
            self._ring.close()
            self._ring = None

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Tuple[GraphBatch, np.ndarray]]:
        task = self.dataset.task
        for batch_idx in self._filled_batches(list(self.sampler)):
            yield (
                collate_from_store(
                    self.dataset.store, batch_idx, edge_attr_dim=task.edge_attr_dim
                ),
                task.labels[batch_idx],
            )

    def warm(self, indices: Optional[Sequence[int]] = None) -> "DataLoader":
        """Eagerly extract ``indices`` (default: the sampler's index set).

        Uses a sequential pass independent of the sampler, so warming a
        shuffle loader does not consume its permutation stream. Parallel
        loaders warm with the worker pool.
        """
        order = np.asarray(
            self.sampler.indices if indices is None else indices, dtype=np.int64
        )
        chunk = max(int(getattr(self.sampler, "batch_size", 64)), 1)
        batches = [order[s : s + chunk] for s in range(0, len(order), chunk)]
        for _ in self._filled_batches(batches):
            pass
        return self

    # ------------------------------------------------------------------ #
    # extraction scheduling
    # ------------------------------------------------------------------ #
    def _filled_batches(self, batches: List[np.ndarray]) -> Iterator[np.ndarray]:
        """Yield each index batch once every one of its links is stored."""
        if self.num_workers > 0 and not self._pool_broken:
            yield from self._fill_parallel(batches)
        else:
            yield from self._fill_serial(batches)

    def _fill_serial(self, batches: List[np.ndarray]) -> Iterator[np.ndarray]:
        # One multi-source extraction sweep per batch.
        for batch_idx in batches:
            self.dataset.ensure_many(batch_idx)
            yield batch_idx

    def _task_payload(self) -> Tuple[object, Optional[str]]:
        """``(task, graph_path)`` the workers will be initialized with.

        A path-backed graph (saved or mmap-opened) is stripped from the
        payload — workers re-open the storage directory themselves, so
        the graph arrays are never duplicated into the worker payloads.
        In-memory-only graphs keep the original pickled-task fallback.
        """
        task = self.dataset.task
        path = getattr(getattr(task, "graph", None), "storage_path", None)
        if path is None:
            obs.count("data.loader.payload_pickled")
            return task, None
        light = copy.copy(task)
        light.graph = None
        obs.count("data.loader.payload_path")
        return light, str(path)

    def _ensure_ring(self) -> Optional[SampleRing]:
        if self._ring is None and not self._ring_broken:
            slots = self.num_workers * self.prefetch_factor
            try:
                self._ring = SampleRing.create(slots, self.ring_slot_bytes)
            except Exception as exc:  # pragma: no cover - platform dependent
                self._ring_broken = True
                logger.warning(
                    "shared-memory ring unavailable (%s); worker batches "
                    "will be pickled instead",
                    exc,
                )
        return self._ring

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing as mp

            ctx = mp.get_context()
            ring = self._ensure_ring()
            task, graph_path = self._task_payload()
            payload = (
                task,
                graph_path,
                self.dataset.rng_seed,
                None if ring is None else ring.meta,
            )
            self._pool = ctx.Pool(
                self.num_workers, initializer=_worker_init, initargs=(payload,)
            )
        return self._pool

    def _fill_parallel(self, batches: List[np.ndarray]) -> Iterator[np.ndarray]:
        store = self.dataset.store
        missing = store.missing(np.concatenate(batches)) if batches else np.empty(0, np.int64)
        if missing.size == 0:
            yield from self._fill_serial(batches)
            return
        try:
            pool = self._ensure_pool()
        except Exception as exc:  # pragma: no cover - platform dependent
            logger.warning("worker pool unavailable (%s); extracting serially", exc)
            self._mark_broken()
            yield from self._fill_serial(batches)
            return

        chunk = self.chunk_size or max(
            1, -(-len(missing) // (self.num_workers * self.prefetch_factor * 2))
        )
        chunks = deque(
            missing[s : s + chunk].tolist() for s in range(0, len(missing), chunk)
        )
        obs.count("data.loader.parallel_links", float(len(missing)))
        pending: deque = deque()
        max_inflight = self.num_workers * self.prefetch_factor
        fresh = set(missing.tolist())
        ring = self._ring

        def pump() -> None:
            while chunks and len(pending) < max_inflight:
                slot = -1 if ring is None else ring.acquire()
                pending.append(
                    pool.apply_async(
                        _worker_extract, (chunks.popleft(), slot, obs.enabled())
                    )
                )

        def decode(payload):
            """Worker result -> (samples, slot to release or None)."""
            kind, slot, body, delta = payload
            if delta is not None:
                obs.merge(delta)
            slot = slot if slot >= 0 else None
            if kind == "shm":
                obs.count("store.ring.batches")
                return ring.read(slot, body), slot
            if ring is not None:
                obs.count("store.ring.fallbacks")
            return body, slot

        pump()
        for batch_idx in batches:
            needed = [int(i) for i in batch_idx]
            # Once broken, never consult `pending` again — results of a
            # terminated pool may never resolve and get() would block.
            while not self._pool_broken and any(i not in store for i in needed):
                if not pending:
                    # Dispatch exhausted but links still missing (worker
                    # failure path) — finish this epoch serially.
                    self._mark_broken()
                    break
                result = pending.popleft()
                try:
                    with obs.trace("queue-wait"):
                        # Bounded wait: a hung (not dead) worker must not
                        # block the epoch forever — time out and finish
                        # through the serial path instead.
                        samples, slot = decode(result.get(self.worker_timeout))
                except MpTimeoutError:
                    obs.count("data.loader.worker_timeouts")
                    logger.warning(
                        "extraction worker produced nothing for %.1fs; "
                        "assuming it hung and falling back to serial",
                        self.worker_timeout,
                    )
                    self._mark_broken()
                    break
                except Exception as exc:
                    logger.warning(
                        "extraction worker failed (%s); falling back to serial", exc
                    )
                    self._mark_broken()
                    break
                for sample in samples:
                    # adopt() copies into the dataset's store, so ring
                    # views are safe to recycle right after this loop.
                    self.dataset.adopt(sample)
                if slot is not None:
                    ring.release(slot)
                pump()
            if self._pool_broken:
                fresh.difference_update(needed)
                self.dataset.ensure_many(needed)
            else:
                # First access of a worker-extracted link was already
                # counted as a miss by adopt(); later accesses are hits.
                repeats = []
                for i in needed:
                    if i in fresh:
                        fresh.discard(i)
                    else:
                        repeats.append(i)
                self.dataset.ensure_many(repeats)
            yield batch_idx

    def _mark_broken(self) -> None:
        self._pool_broken = True
        self.close()


def warm(dataset, *, num_workers: int = 0, prefetch_factor: int = 2) -> None:
    """Eagerly extract every link of ``dataset`` into its store.

    With ``num_workers > 0`` the extraction fans out over a worker pool.
    """
    with DataLoader(
        dataset, num_workers=num_workers, prefetch_factor=prefetch_factor, batch_size=64
    ) as loader:
        loader.warm()
