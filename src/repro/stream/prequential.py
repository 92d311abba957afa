"""Prequential (test-then-train) evaluation over a temporal stream.

Each window of events is first *scored* — the current model classifies
the window's newly published links against the latest frozen snapshot —
and only then *learned from*: the events are applied to the streaming
graph and the model takes a few optimizer epochs over a sliding window
of recent links. Interleaving test-before-train gives an unbiased
online estimate of generalization (every link is scored strictly before
the model sees it), the standard protocol for evolving-data evaluation.

Bit-compatibility with the offline evaluator
--------------------------------------------
A stream with zero mutation events (``mutate_graph=False`` or no events
applied) and ``train_epochs=0`` reproduces
:func:`repro.seal.evaluate` *bit for bit* provided the stream windows
align with the offline evaluation batches (``window_size`` a multiple
of ``eval_batch_size`` on a pure-add stream): per-link extraction
streams are keyed on each link's *global stream index* (matching the
offline task's index keying), snapshots preserve CSR traversal order,
and aligned windows reproduce the offline batch partition, so every
forward sees an identical batch. ``PrequentialResult.final`` is then
field-for-field identical to the offline :class:`EvalResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import obs
from repro.metrics.classification import accuracy
from repro.seal.dataset import LinkTask, SEALDataset
from repro.seal.evaluator import metric_suite, predict_proba
from repro.seal.results import EvalResult
from repro.seal.trainer import TrainConfig, train
from repro.stream.drift import DriftTracker
from repro.stream.events import EventBatch
from repro.stream.snapshot import StreamingGraph
from repro.utils.rng import RngLike, derive

__all__ = ["StreamConfig", "WindowRecord", "PrequentialResult", "run_prequential"]


@dataclass
class StreamConfig:
    """Knobs of one prequential run.

    ``window_size`` counts *events* per window; only add events become
    test links. ``train_window`` is the sliding buffer of most recent
    links re-fit after each window (``train_epochs=0`` disables
    training entirely — the pure-evaluation mode the offline-equivalence
    guarantee is stated for).
    """

    window_size: int = 64
    eval_batch_size: int = 16
    train_epochs: int = 1
    train_window: int = 256
    batch_size: int = 16
    lr: float = 1e-3
    mutate_graph: bool = True

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.eval_batch_size <= 0:
            raise ValueError("eval_batch_size must be positive")
        if self.train_epochs < 0:
            raise ValueError("train_epochs must be non-negative")
        if self.train_window <= 0 or self.batch_size <= 0:
            raise ValueError("train_window and batch_size must be positive")


@dataclass(frozen=True)
class WindowRecord:
    """Bookkeeping for one prequential window."""

    window: int
    version: int  # snapshot version the window was scored against
    events: int
    test_links: int
    accuracy: float
    trained_links: int
    predict_s: float
    train_s: float


@dataclass
class PrequentialResult:
    """Everything one prequential run produced.

    ``final`` aggregates every scored link with the offline evaluator's
    metric suite (one-vs-rest AUC, AP, accuracy, confusion); it is
    ``None`` when the stream published no links. ``probs``/``labels``/
    ``pairs`` concatenate the windows in stream order.
    """

    windows: List[WindowRecord] = field(default_factory=list)
    probs: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    pairs: Optional[np.ndarray] = None
    final: Optional[EvalResult] = None
    drift: Optional[DriftTracker] = None

    @property
    def num_links(self) -> int:
        return 0 if self.labels is None else int(len(self.labels))

    def summary(self) -> dict:
        out = {
            "windows": len(self.windows),
            "links": self.num_links,
            "trained_links": int(sum(w.trained_links for w in self.windows)),
            "predict_s": float(sum(w.predict_s for w in self.windows)),
            "train_s": float(sum(w.train_s for w in self.windows)),
        }
        if self.final is not None:
            out["final"] = self.final.summary()
        if self.drift is not None:
            out["drift"] = self.drift.summary()
        return out


@dataclass
class _WindowTask(LinkTask):
    """A LinkTask over one window, keyed on global stream indices.

    ``link_ids[i]`` is link ``i``'s position in the whole stream's
    add-event order; ``link_key`` keys the extraction stream on it so a
    link's subgraph is identical whether it is extracted here, in a
    later training window, or by the offline evaluator indexing the
    full link table.
    """

    link_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def link_key(self, index: int) -> str:
        return str(int(self.link_ids[index]))


def _window_task(
    template: LinkTask,
    graph,
    pairs: np.ndarray,
    labels: np.ndarray,
    link_ids: np.ndarray,
) -> _WindowTask:
    return _WindowTask(
        graph=graph,
        pairs=np.asarray(pairs, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64),
        num_classes=template.num_classes,
        feature_config=template.feature_config,
        class_names=list(template.class_names),
        name=template.name,
        subgraph_mode=template.subgraph_mode,
        num_hops=template.num_hops,
        max_subgraph_nodes=template.max_subgraph_nodes,
        edge_attr_dim=template.edge_attr_dim,
        link_ids=np.asarray(link_ids, dtype=np.int64),
    )


def run_prequential(
    model,
    stream: StreamingGraph,
    template: LinkTask,
    events: EventBatch,
    config: Optional[StreamConfig] = None,
    *,
    rng: RngLike = 0,
    extraction_rng: RngLike = 0,
) -> PrequentialResult:
    """Drive ``model`` prequentially over ``events``.

    Parameters
    ----------
    model: a DGCNN-family classifier (trained in place).
    stream: the :class:`StreamingGraph` the events mutate.
    template: a :class:`LinkTask` supplying the task settings (feature
        config, hops, classes, name) — its own pair table is ignored.
    events: the full event stream, windowed by ``config.window_size``.
    rng: seed material for the per-window training shuffles.
    extraction_rng: seed material of the extraction streams — match the
        offline ``SEALDataset`` seed to reproduce it bit for bit.

    ``PrequentialResult.drift`` is a fresh :class:`DriftTracker` fed one
    update per window.
    """
    config = config or StreamConfig()
    tracker = DriftTracker()
    result = PrequentialResult(drift=tracker)

    links_seen = 0
    buf_ids: List[np.ndarray] = []
    buf_pairs: List[np.ndarray] = []
    buf_labels: List[np.ndarray] = []
    all_probs: List[np.ndarray] = []
    all_labels: List[np.ndarray] = []
    all_pairs: List[np.ndarray] = []

    with obs.trace("stream"):
        for w, batch in enumerate(events.windows(config.window_size)):
            snap = stream.snapshot()
            add = batch.added_mask
            test_pairs = batch.pairs[add]
            test_labels = batch.labels[add]
            acc = float("nan")
            predict_s = 0.0
            if len(test_pairs):
                ids = links_seen + np.arange(len(test_pairs), dtype=np.int64)
                task = _window_task(template, snap.graph, test_pairs, test_labels, ids)
                ds = SEALDataset(task, rng=extraction_rng)
                t0 = time.perf_counter()
                probs = predict_proba(
                    model,
                    ds,
                    np.arange(len(test_pairs)),
                    batch_size=config.eval_batch_size,
                )
                predict_s = time.perf_counter() - t0
                acc = accuracy(test_labels, probs.argmax(axis=1))
                all_probs.append(probs)
                all_labels.append(test_labels)
                all_pairs.append(test_pairs)
                buf_ids.append(ids)
                buf_pairs.append(test_pairs)
                buf_labels.append(test_labels)
                links_seen += len(test_pairs)
                obs.count("stream.prequential.links", float(len(test_pairs)))

            if config.mutate_graph and len(batch):
                stream.apply(batch)

            train_s = 0.0
            trained = 0
            if config.train_epochs > 0 and buf_ids:
                ids_all = np.concatenate(buf_ids)[-config.train_window :]
                pairs_all = np.concatenate(buf_pairs)[-config.train_window :]
                labels_all = np.concatenate(buf_labels)[-config.train_window :]
                buf_ids = [ids_all]
                buf_pairs = [pairs_all]
                buf_labels = [labels_all]
                snap_t = stream.snapshot()
                task_t = _window_task(
                    template, snap_t.graph, pairs_all, labels_all, ids_all
                )
                ds_t = SEALDataset(task_t, rng=extraction_rng)
                tc = TrainConfig(
                    epochs=config.train_epochs,
                    batch_size=config.batch_size,
                    lr=config.lr,
                )
                t0 = time.perf_counter()
                train(
                    model,
                    ds_t,
                    np.arange(len(labels_all)),
                    tc,
                    rng=derive(rng, "stream-train", str(w)),
                    verbose=False,
                )
                train_s = time.perf_counter() - t0
                trained = int(len(labels_all))

            post = stream.snapshot().graph if config.mutate_graph else snap.graph
            tracker.update(
                labels=test_labels if len(test_pairs) else None,
                num_classes=template.num_classes,
                graph=post,
                edge_attr=(
                    batch.edge_attr[add] if batch.edge_attr is not None else None
                ),
                accuracy=acc if len(test_pairs) else None,
            )
            result.windows.append(
                WindowRecord(
                    window=w,
                    version=snap.version,
                    events=len(batch),
                    test_links=int(len(test_pairs)),
                    accuracy=acc,
                    trained_links=trained,
                    predict_s=predict_s,
                    train_s=train_s,
                )
            )
            obs.count("stream.windows")

    if all_probs:
        result.probs = np.concatenate(all_probs, axis=0)
        result.labels = np.concatenate(all_labels)
        result.pairs = np.concatenate(all_pairs, axis=0)
        result.final = metric_suite(result.labels, result.probs, template.num_classes)
    return result
