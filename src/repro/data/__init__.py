"""repro.data — the data-loading layer of the SEAL pipeline.

Splits the data path into two pieces, the PyG/DGL loader architecture
adapted to per-link enclosing-subgraph workloads:

* **SubgraphStore** (:mod:`repro.data.store`) holds every extracted
  subgraph in packed contiguous arrays with O(1) per-link slicing.
* **DataLoader** (:mod:`repro.data.loader`) serves each epoch's index
  batches in :func:`~repro.data.loader.epoch_batches` order (in order,
  or shuffled by a generator), extracts each batch's missing links
  in-process, in one batched sweep, and collates store slices into
  :class:`~repro.graph.batch.GraphBatch` objects. There is one
  extraction path, so a seed fixes the stream.

Every SEAL consumer — trainer, evaluator, serving, cross-validation,
tuners, experiment runner — feeds from this layer.
"""

from repro.data.extraction import build_packed_samples
from repro.data.loader import DataLoader, collate_from_store, epoch_batches, warm
from repro.data.store import PackedSubgraph, StoreInfo, SubgraphStore

__all__ = [
    "SubgraphStore",
    "PackedSubgraph",
    "StoreInfo",
    "DataLoader",
    "collate_from_store",
    "epoch_batches",
    "warm",
    "build_packed_samples",
]
