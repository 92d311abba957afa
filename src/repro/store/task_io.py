"""Persist a whole :class:`~repro.seal.LinkTask` next to its saved graph.

:func:`save_task` writes the task's graph with :meth:`Graph.save
<repro.graph.Graph.save>` and everything else (pairs, labels, class
names, extraction settings, the feature recipe) as one atomic
``task.npz`` in the meta-npz format checkpoints and model bundles use
(:func:`repro.utils.serialization.write_meta_npz`). :func:`load_task`
rebuilds the task with the graph mmap-opened, so
``python -m repro profile --graph-dir DIR`` (and any other caller) can
run a large workload against on-disk arrays instead of regenerating —
and re-pickling — synthetics every run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.graph.structure import Graph, is_saved_graph
from repro.seal.dataset import LinkTask
from repro.seal.features import dump_feature_config, load_feature_config
from repro.utils.serialization import read_meta_npz, write_meta_npz

__all__ = ["TASK_FILE", "has_task", "load_task", "save_task"]

#: Filename of the task manifest inside a saved task directory.
TASK_FILE = "task.npz"

_TASK_VERSION = 1


def has_task(directory) -> bool:
    """Whether ``directory`` holds a complete saved task (graph + manifest)."""
    directory = Path(directory)
    return (directory / TASK_FILE).exists() and is_saved_graph(directory)


def save_task(directory, task) -> Path:
    """Write ``task`` (graph arrays + task manifest) under ``directory``.

    An earlier ``task.npz`` is dropped first, so a save that dies part-way
    leaves no task (:func:`has_task` is false) rather than an old manifest
    beside a new graph.
    """
    directory = Path(directory)
    (directory / TASK_FILE).unlink(missing_ok=True)
    task.graph.save(directory)
    arrays = {
        "pairs": np.asarray(task.pairs, dtype=np.int64),
        "labels": np.asarray(task.labels, dtype=np.int64),
    }
    fc_meta, fc_arrays = dump_feature_config(task.feature_config)
    arrays.update(fc_arrays)
    meta = {
        "kind": "link-task",
        "version": _TASK_VERSION,
        "name": task.name,
        "num_classes": int(task.num_classes),
        "class_names": list(task.class_names),
        "subgraph_mode": task.subgraph_mode,
        "num_hops": int(task.num_hops),
        "max_subgraph_nodes": (
            None if task.max_subgraph_nodes is None else int(task.max_subgraph_nodes)
        ),
        "edge_attr_dim": int(task.edge_attr_dim),
        "feature_config": fc_meta,
    }
    write_meta_npz(directory / TASK_FILE, arrays, meta)
    return directory


def load_task(directory, *, mmap: bool = True):
    """Rebuild the :class:`~repro.seal.LinkTask` saved under ``directory``.

    The graph comes back through :meth:`Graph.open` — mmap-backed by
    default, so the task is ready for zero-copy worker payloads.
    """
    directory = Path(directory)
    arrays, meta = read_meta_npz(directory / TASK_FILE)
    if meta.get("kind") != "link-task":
        raise ValueError(f"{directory / TASK_FILE} is not a saved link task")
    if meta.get("version") != _TASK_VERSION:
        raise ValueError(
            f"saved task version {meta.get('version')} unsupported "
            f"(this build reads version {_TASK_VERSION})"
        )
    return LinkTask(
        graph=Graph.open(directory, mmap=mmap),
        pairs=arrays["pairs"],
        labels=arrays["labels"],
        num_classes=int(meta["num_classes"]),
        feature_config=load_feature_config(meta["feature_config"], arrays),
        class_names=list(meta["class_names"]),
        name=meta["name"],
        subgraph_mode=meta["subgraph_mode"],
        num_hops=int(meta["num_hops"]),
        max_subgraph_nodes=(
            None
            if meta["max_subgraph_nodes"] is None
            else int(meta["max_subgraph_nodes"])
        ),
        edge_attr_dim=int(meta["edge_attr_dim"]),
    )
