"""repro.data — the data-loading layer of the SEAL pipeline.

Splits the data path into three replaceable pieces, the PyG/DGL loader
architecture adapted to per-link enclosing-subgraph workloads:

* **Samplers** (:mod:`repro.data.samplers`) order link indices into
  batches: sequential, seeded shuffle, or class-stratified.
* **SubgraphStore** (:mod:`repro.data.store`) holds every extracted
  subgraph in packed contiguous arrays with O(1) per-link slicing.
* **DataLoader** (:mod:`repro.data.loader`) extracts each batch's
  missing links in-process, in one batched sweep, and collates store
  slices into :class:`~repro.graph.batch.GraphBatch` objects. There is
  one extraction path, so a seed fixes the stream.

Every SEAL consumer — trainer, evaluator, serving, cross-validation,
tuners, experiment runner — feeds from this layer.
"""

from repro.data.extraction import build_packed_samples
from repro.data.loader import DataLoader, collate_from_store, warm
from repro.data.samplers import (
    Sampler,
    SequentialSampler,
    ShardedBatchSampler,
    ShuffleSampler,
    StratifiedBatchSampler,
)
from repro.data.store import PackedSubgraph, StoreInfo, SubgraphStore

__all__ = [
    "Sampler",
    "SequentialSampler",
    "ShardedBatchSampler",
    "ShuffleSampler",
    "StratifiedBatchSampler",
    "SubgraphStore",
    "PackedSubgraph",
    "StoreInfo",
    "DataLoader",
    "collate_from_store",
    "warm",
    "build_packed_samples",
]
