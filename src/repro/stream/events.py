"""Seeded temporal event streams over a knowledge graph.

Events follow a GDELT-style schema: each row is a timestamped statement
about one (head, tail) pair — either a new typed, attributed edge
appearing (``ADD_EDGE``) or a previously published edge being retracted
(``INVALIDATE_EDGE``). Streams are columnar (:class:`EventBatch`), keep
their rows in time order, and are fully determined by the seed, so every
consumer (snapshotting, prequential evaluation, benchmarks) replays the
identical history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.graph.structure import Graph
from repro.nn.dtype import FLOAT64
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "ADD_EDGE",
    "INVALIDATE_EDGE",
    "EventBatch",
    "events_from_links",
    "generate_events",
]

#: Event kinds. An ``ADD_EDGE`` publishes a new undirected edge with a
#: type, attributes and a link label; an ``INVALIDATE_EDGE`` retracts a
#: previously live edge (its type/attr columns echo the retracted edge).
ADD_EDGE = 0
INVALIDATE_EDGE = 1


@dataclass(frozen=True)
class EventBatch:
    """A time-ordered columnar slice of a temporal event stream.

    Attributes
    ----------
    times: ``(M,)`` float64 event timestamps, non-decreasing.
    kinds: ``(M,)`` int8, :data:`ADD_EDGE` or :data:`INVALIDATE_EDGE`.
    pairs: ``(M, 2)`` int64 undirected (head, tail) node pairs.
    edge_type: ``(M,)`` int64 relation type of the published/retracted
        edge.
    labels: ``(M,)`` int64 link-classification label of each add event
        (mirrors ``edge_type`` for generated streams; invalidations echo
        the retracted edge's type).
    edge_attr: optional ``(M, D)`` float edge attributes for add events.
    """

    times: np.ndarray
    kinds: np.ndarray
    pairs: np.ndarray
    edge_type: np.ndarray
    labels: np.ndarray
    edge_attr: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        m = len(self.times)
        if self.kinds.shape != (m,) or self.edge_type.shape != (m,):
            raise ValueError("event columns disagree on length")
        if self.labels.shape != (m,):
            raise ValueError("labels must be one per event")
        if self.pairs.shape != (m, 2):
            raise ValueError(f"pairs must be (M, 2), got {self.pairs.shape}")
        if self.edge_attr is not None and self.edge_attr.shape[0] != m:
            raise ValueError("edge_attr must have one row per event")
        if m > 1 and np.any(np.diff(self.times) < 0):
            raise ValueError("event times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def added_mask(self) -> np.ndarray:
        return self.kinds == ADD_EDGE

    @property
    def num_added(self) -> int:
        return int(np.count_nonzero(self.added_mask))

    @property
    def num_invalidated(self) -> int:
        return len(self) - self.num_added

    def slice(self, lo: int, hi: int) -> "EventBatch":
        """Rows ``[lo, hi)`` as a new batch (views, no copies)."""
        return EventBatch(
            times=self.times[lo:hi],
            kinds=self.kinds[lo:hi],
            pairs=self.pairs[lo:hi],
            edge_type=self.edge_type[lo:hi],
            labels=self.labels[lo:hi],
            edge_attr=None if self.edge_attr is None else self.edge_attr[lo:hi],
        )

    def windows(self, window_size: int) -> Iterator["EventBatch"]:
        """Iterate consecutive windows of up to ``window_size`` events."""
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        for lo in range(0, len(self), window_size):
            yield self.slice(lo, min(lo + window_size, len(self)))


def events_from_links(
    pairs: np.ndarray,
    labels: np.ndarray,
    *,
    edge_attr: Optional[np.ndarray] = None,
) -> EventBatch:
    """Wrap an existing link table as a stream of add events.

    The workhorse for replaying an offline task's links prequentially:
    pairs arrive in index order at unit-spaced timestamps, and each
    edge's type is its label (the convention of the bundled datasets).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    m = len(pairs)
    return EventBatch(
        times=np.arange(m, dtype=FLOAT64),
        kinds=np.full(m, ADD_EDGE, dtype=np.int8),
        pairs=pairs,
        edge_type=labels.copy(),
        labels=labels,
        edge_attr=None if edge_attr is None else np.asarray(edge_attr),
    )


def generate_events(
    graph: Graph,
    num_events: int,
    *,
    rng: RngLike = 0,
    add_fraction: float = 0.85,
    num_classes: Optional[int] = None,
    class_drift: float = 0.0,
) -> EventBatch:
    """Draw a seeded temporal event stream over ``graph``.

    Add events publish a fresh undirected edge between two distinct
    uniformly drawn nodes with a class drawn from a categorical that can
    drift over time (``class_drift`` tilts the logits linearly in event
    order, skewing late events toward higher class ids — the knob the
    drift metrics are calibrated against). Invalidate events retract an
    edge drawn uniformly from the *currently live* set (base edges plus
    earlier adds, minus earlier retractions), so every invalidation in
    the stream is matchable. Inter-arrival times are exponential with
    rate 1, starting from time 0.

    Edge attributes are one-hot in the graph's ``edge_attr`` width when
    the graph carries attributes (the bundled datasets' convention),
    otherwise omitted.
    """
    if num_events < 0:
        raise ValueError("num_events must be non-negative")
    if not 0.0 <= add_fraction <= 1.0:
        raise ValueError("add_fraction must be in [0, 1]")
    if not np.isfinite(class_drift):
        raise ValueError(f"class_drift must be finite, got {class_drift}")
    gen = ensure_rng(rng)
    n = graph.num_nodes
    if n < 2:
        raise ValueError("graph needs at least 2 nodes to stream events")
    if num_classes is None:
        num_classes = int(graph.edge_type.max()) + 1 if graph.num_edges else 1
    attr_dim = 0 if graph.edge_attr is None else int(graph.edge_attr.shape[1])

    # Live undirected edge list: base edges deduped to u <= v, then a
    # swap-pop list so retraction targets are O(1) to remove.
    src, dst = graph.edge_index
    und = np.unique(
        np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1), axis=0
    )
    live: List[Tuple[int, int, int]] = [
        (int(u), int(v), int(t))
        for (u, v), t in zip(und, graph.edge_type[_first_arc_ids(graph, und)])
    ]

    times = np.cumsum(gen.exponential(1.0, num_events))
    kinds = np.empty(num_events, dtype=np.int8)
    pairs = np.empty((num_events, 2), dtype=np.int64)
    etypes = np.empty(num_events, dtype=np.int64)
    labels = np.empty(num_events, dtype=np.int64)
    base_logits = np.zeros(num_classes)
    drift_dir = np.linspace(-1.0, 1.0, num_classes)
    for i in range(num_events):
        is_add = gen.random() < add_fraction or not live
        if is_add:
            u = int(gen.integers(0, n))
            v = int(gen.integers(0, n - 1))
            if v >= u:
                v += 1
            t_frac = i / max(num_events - 1, 1)
            logits = base_logits + class_drift * t_frac * drift_dir
            p = np.exp(logits - logits.max())
            c = int(gen.choice(num_classes, p=p / p.sum()))
            kinds[i] = ADD_EDGE
            pairs[i] = (u, v)
            etypes[i] = labels[i] = c
            live.append((u, v, c))
        else:
            j = int(gen.integers(0, len(live)))
            u, v, c = live[j]
            live[j] = live[-1]
            live.pop()
            kinds[i] = INVALIDATE_EDGE
            pairs[i] = (u, v)
            etypes[i] = labels[i] = c
    attr = np.eye(attr_dim)[etypes % attr_dim] if attr_dim else None
    obs.count("stream.events.generated", float(num_events))
    return EventBatch(
        times=times,
        kinds=kinds,
        pairs=pairs,
        edge_type=etypes,
        labels=labels,
        edge_attr=attr,
    )


def _first_arc_ids(graph: Graph, und_pairs: np.ndarray) -> np.ndarray:
    """Arc id of one representative arc per deduped undirected pair."""
    if len(und_pairs) == 0:
        return np.empty(0, dtype=np.int64)
    src, dst = graph.edge_index
    key = np.minimum(src, dst) * np.int64(graph.num_nodes) + np.maximum(src, dst)
    order = np.argsort(key, kind="stable")
    want = und_pairs[:, 0] * np.int64(graph.num_nodes) + und_pairs[:, 1]
    return order[np.searchsorted(key[order], want)]
