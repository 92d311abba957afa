"""repro.distributed — sharded graphs and data-parallel training.

The scale-out layer of the pipeline (ROADMAP item: sharded graph +
data-parallel training):

* :func:`partition_graph` splits a link task's graph into K shards by a
  stateless splitmix64 node-owner hash, each with a halo covering
  everything SEAL extraction can reach from its owned links, persisted
  zero-copy via the :mod:`repro.store` mmap format
  (:meth:`GraphPartition.save`).
* :func:`train_data_parallel` trains one model over those shards,
  either in-process (``processes=0``, the bit-identity reference) or
  with one worker process per shard exchanging gradients through a
  shared-memory :class:`~repro.store.ParameterBuffer` with a barrier
  per step. K-shard training is bit-identical to the in-process
  reference, resumes through the standard
  :mod:`repro.seal.checkpoint` bundles, and reduces exactly to
  :func:`repro.seal.train` at ``num_shards=1``.
"""

from repro.distributed.partition import (
    GraphPartition,
    Shard,
    hash_node_owners,
    partition_graph,
    shard_task,
)
from repro.distributed.trainer import DistributedConfig, train_data_parallel

__all__ = [
    "GraphPartition",
    "Shard",
    "hash_node_owners",
    "partition_graph",
    "shard_task",
    "DistributedConfig",
    "train_data_parallel",
]
