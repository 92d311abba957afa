"""repro.store — zero-copy storage: mmap graph arrays and shared parameters.

The storage layer under the data pipeline:

* :class:`GraphStorage` — the frozen array set behind every
  :class:`~repro.graph.Graph`; lives in memory or as read-only numpy
  memmaps on disk (``save``/``open``), shared across the data-parallel
  trainer's shard processes without pickling the graph payload.
* :class:`ParameterBuffer` — the fixed-layout shared-memory
  weights/gradients exchange the data-parallel trainer
  (:mod:`repro.distributed`) reduces through, with a strict-rank-order
  sum that keeps K-process training bit-identical to one process.
* :func:`save_task` / :func:`load_task` — persist a whole
  :class:`~repro.seal.LinkTask` (graph + pairs + labels + recipe) as a
  directory workloads can be re-run against (``profile --graph-dir``).
"""

from repro.store.graph_storage import STORAGE_VERSION, GraphStorage
from repro.store.parambuf import CMD_ABORT, CMD_RUN, ParameterBuffer
from repro.store.task_io import TASK_FILE, has_task, load_task, save_task

__all__ = [
    "STORAGE_VERSION",
    "GraphStorage",
    "ParameterBuffer",
    "CMD_RUN",
    "CMD_ABORT",
    "TASK_FILE",
    "has_task",
    "load_task",
    "save_task",
]
