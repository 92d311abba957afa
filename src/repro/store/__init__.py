"""repro.store — shared parameters and saved tasks.

Graphs save and open themselves (:meth:`repro.graph.Graph.save` /
:meth:`~repro.graph.Graph.open`, read-only memmaps shared across the
data-parallel trainer's shard processes). This package holds the rest:

* :class:`ParameterBuffer` — the fixed-layout shared-memory
  weights/gradients exchange the data-parallel trainer
  (:mod:`repro.distributed`) reduces through, with a strict-rank-order
  sum that keeps K-process training bit-identical to one process.
* :func:`save_task` / :func:`load_task` — persist a whole
  :class:`~repro.seal.LinkTask` (graph + pairs + labels + recipe) as a
  directory workloads can be re-run against (``profile --graph-dir``).
"""

from repro.store.parambuf import CMD_ABORT, CMD_RUN, ParameterBuffer
from repro.store.task_io import TASK_FILE, has_task, load_task, save_task

__all__ = [
    "ParameterBuffer",
    "CMD_RUN",
    "CMD_ABORT",
    "TASK_FILE",
    "has_task",
    "load_task",
    "save_task",
]
