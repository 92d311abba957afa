"""Batch samplers: the index-ordering half of the data-loading layer.

A sampler decides *which* link indices form each mini-batch and in what
order; the :class:`~repro.data.DataLoader` turns those index batches
into collated :class:`~repro.graph.batch.GraphBatch` objects. Separating
the two (the PyG/DGL architecture) lets training policies — shuffling,
class-balanced batching for the skewed KG label distributions — compose
with any extraction backend, serial or parallel.

Every sampler is re-iterable: each ``__iter__`` yields one full epoch.
Stochastic samplers hold a generator created once from their ``rng``
argument (via :func:`repro.utils.rng.ensure_rng`), so consecutive epochs
draw consecutive permutations from one reproducible stream — iterate a
fresh sampler with the same seed and you replay the same epochs.
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.nn.dtype import FLOAT64

from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "Sampler",
    "SequentialSampler",
    "ShardedBatchSampler",
    "ShuffleSampler",
    "StratifiedBatchSampler",
]


@runtime_checkable
class Sampler(Protocol):
    """Protocol: an iterable of index batches over a fixed index set."""

    indices: np.ndarray  # every index the sampler serves, in canonical order

    def __iter__(self) -> Iterator[np.ndarray]:
        """Yield one epoch of ``(batch_size,)``-or-smaller index arrays."""
        ...

    def __len__(self) -> int:
        """Number of batches per epoch."""
        ...


def _check_indices(indices: Sequence[int]) -> np.ndarray:
    arr = np.asarray(indices, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("indices must be one-dimensional")
    return arr


def _check_batch_size(batch_size: int) -> int:
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    return int(batch_size)


def _chunk(order: np.ndarray, batch_size: int) -> Iterator[np.ndarray]:
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


class SequentialSampler:
    """Serve ``indices`` in their given order, chunked into batches."""

    def __init__(self, indices: Sequence[int], batch_size: int):
        self.indices = _check_indices(indices)
        self.batch_size = _check_batch_size(batch_size)

    def __iter__(self) -> Iterator[np.ndarray]:
        return _chunk(self.indices, self.batch_size)

    def __len__(self) -> int:
        return -(-len(self.indices) // self.batch_size)


class ShuffleSampler:
    """Freshly permute ``indices`` each epoch (seeded, reproducible).

    One generator drives every epoch's permutation, so the epoch
    sequence replays bit-for-bit under the same seed while consecutive
    epochs still differ.
    """

    def __init__(self, indices: Sequence[int], batch_size: int, *, rng: RngLike = None):
        self.indices = _check_indices(indices)
        self.batch_size = _check_batch_size(batch_size)
        self._gen = ensure_rng(rng)

    def __iter__(self) -> Iterator[np.ndarray]:
        return _chunk(self._gen.permutation(self.indices), self.batch_size)

    def __len__(self) -> int:
        return -(-len(self.indices) // self.batch_size)


class ShardedBatchSampler:
    """One shard's view of a globally shuffled epoch (distributed training).

    Draws the *same* permutation stream over the full index set as
    :class:`ShuffleSampler` would, chunks it into global batches, and
    yields each batch filtered down to the links in ``owned`` — order
    preserved. K shards built from the same seed therefore partition
    every global batch exactly, which is how the data-parallel trainer
    (:mod:`repro.distributed`) keeps its per-step gradient groups
    aligned with single-process batch order.

    Parameters
    ----------
    indices: the *global* index set (identical across shards).
    batch_size: the global batch size.
    owned: global indices this shard owns (``Shard.owned_links``).
    rng: seed for the shared permutation stream — must match across
        shards (and match the single-process baseline) for alignment.
    drop_empty:
        when True (default) global batches containing none of this
        shard's links are skipped — the mode a standalone
        :class:`~repro.data.DataLoader` needs, since it cannot collate
        an empty batch. The trainer keeps step alignment itself and
        writes a zero gradient slab for empty groups.
    """

    def __init__(
        self,
        indices: Sequence[int],
        batch_size: int,
        *,
        owned: Sequence[int],
        rng: RngLike = None,
        drop_empty: bool = True,
    ):
        self.indices = _check_indices(indices)
        self.batch_size = _check_batch_size(batch_size)
        self.owned = _check_indices(owned)
        self.drop_empty = bool(drop_empty)
        hi = int(max(self.indices.max(initial=-1), self.owned.max(initial=-1)))
        mask = np.zeros(hi + 1, dtype=bool)
        mask[self.owned] = True
        self._owned_mask = mask
        self._gen = ensure_rng(rng)

    def __iter__(self) -> Iterator[np.ndarray]:
        for batch in _chunk(self._gen.permutation(self.indices), self.batch_size):
            mine = batch[self._owned_mask[batch]]
            if mine.size or not self.drop_empty:
                yield mine

    def __len__(self) -> int:
        """Global step count (an upper bound when ``drop_empty``)."""
        return -(-len(self.indices) // self.batch_size)


class StratifiedBatchSampler:
    """Class-balanced batches: every batch mirrors the global label mix.

    Within each class the members are shuffled per epoch, then each class
    is spread evenly over the epoch by assigning member ``j`` of an
    ``m``-member class the position key ``(j + 0.5) / m`` and stably
    sorting all keys. Every batch of size ``b`` then carries
    ``round(b * class_fraction)`` ±1 members of each class — minority
    classes (BioKG's scarce relations) appear throughout the epoch
    instead of clumping into a few batches.

    Parameters
    ----------
    indices: link indices to serve.
    labels: class label of each entry of ``indices`` (aligned, same length).
    batch_size: target batch size.
    rng: seed for the per-class shuffles.
    """

    def __init__(
        self,
        indices: Sequence[int],
        labels: Sequence[int],
        batch_size: int,
        *,
        rng: RngLike = None,
    ):
        self.indices = _check_indices(indices)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != self.indices.shape:
            raise ValueError("labels must align one-to-one with indices")
        self.batch_size = _check_batch_size(batch_size)
        self._gen = ensure_rng(rng)

    def __iter__(self) -> Iterator[np.ndarray]:
        n = len(self.indices)
        keys = np.empty(n, dtype=FLOAT64)
        order = np.empty(n, dtype=np.int64)
        pos = 0
        for c in np.unique(self.labels):
            members = np.nonzero(self.labels == c)[0]
            members = self._gen.permutation(members)
            m = len(members)
            order[pos : pos + m] = members
            keys[pos : pos + m] = (np.arange(m) + 0.5) / m
            pos += m
        interleaved = self.indices[order[np.argsort(keys, kind="stable")]]
        return _chunk(interleaved, self.batch_size)

    def __len__(self) -> int:
        return -(-len(self.indices) // self.batch_size)
