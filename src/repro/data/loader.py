"""Batch-serving DataLoader: the one data path of the SEAL pipeline.

:func:`epoch_batches` decides one epoch's index batches: the indices in
order, or a fresh permutation of them drawn from a generator. Each
batch's missing subgraphs are extracted in-process, in one batched
multi-source sweep, into the dataset's packed
:class:`~repro.data.store.SubgraphStore`; collation slices the store
directly into preallocated :class:`~repro.graph.batch.GraphBatch`
arrays.

Determinism guarantee
---------------------
Extraction is keyed by ``(dataset seed, link index)`` — see
:mod:`repro.data.extraction` — so a link's subgraph does not depend on
which batch, epoch or loader first asked for it, and batches come out
in :func:`epoch_batches` order. There is a single extraction path, so
the streams cannot differ between configurations: "serial ≡ workers"
holds by construction. The data-parallel trainer and its shard workers
cut their global batches with the same :func:`epoch_batches`, so their
batch order is the single-process order by construction too.

Loader phases are traced through :mod:`repro.obs` as ``extraction``
(store misses) and ``collate``.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.data.store import SubgraphStore
from repro.graph.batch import GraphBatch
from repro.nn.kernels import PlanCache

__all__ = ["DataLoader", "collate_from_store", "epoch_batches", "usable_cores", "warm"]


def epoch_batches(
    indices: np.ndarray, batch_size: int, gen: Optional[np.random.Generator] = None
) -> List[np.ndarray]:
    """One epoch of index batches: ``indices`` cut into ``batch_size`` chunks.

    With a generator the chunks cut ``gen.permutation(indices)``, one draw
    per call, so consecutive epochs differ and a generator restored to
    the same state replays the same epochs. Without one, the indices
    keep their order.
    """
    order = indices if gen is None else gen.permutation(indices)
    return [order[start : start + batch_size] for start in range(0, len(order), batch_size)]


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


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
        ``task``, ``store`` and ``ensure_many(indices)``).
    indices: link indices to serve (default: the whole dataset).
    batch_size: target batch size.
    rng: a generator to shuffle with: every pass over the loader serves
        a fresh permutation from it (:func:`epoch_batches`). ``None``
        serves ``indices`` in order.
    """

    def __init__(
        self,
        dataset,
        indices: Optional[Sequence[int]] = None,
        batch_size: int = 32,
        *,
        rng: Optional[np.random.Generator] = None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        idx = np.arange(len(dataset)) if indices is None else indices
        self.dataset = dataset
        self.indices = np.asarray(idx, dtype=np.int64)
        self.batch_size = int(batch_size)
        self.rng = rng

    def __iter__(self) -> Iterator[Tuple[GraphBatch, np.ndarray]]:
        task = self.dataset.task
        for batch_idx in epoch_batches(self.indices, self.batch_size, self.rng):
            self.dataset.ensure_many(batch_idx)
            yield (
                collate_from_store(
                    self.dataset.store, batch_idx, edge_attr_dim=task.edge_attr_dim
                ),
                task.labels[batch_idx],
            )


def warm(dataset) -> None:
    """Eagerly extract every link of ``dataset`` into its store.

    One multi-source extraction sweep per 64 links, in index order.
    """
    for batch_idx in epoch_batches(np.arange(len(dataset)), 64):
        dataset.ensure_many(batch_idx)
