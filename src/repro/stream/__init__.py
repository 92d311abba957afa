"""Streaming temporal knowledge graphs (ROADMAP item: temporal KGs).

The static pipeline — extraction, the plan cache, ``repro.serve`` —
assumes a frozen CSR. This package supplies the temporal regime around
it without giving that assumption up *per snapshot*:

- :mod:`repro.stream.events` — a seeded, GDELT-style temporal event
  generator (timestamped add-edge / invalidate-edge events carrying
  edge types, edge attributes and link labels).
- :mod:`repro.stream.snapshot` — :class:`StreamingGraph`, an
  incremental graph layer whose state is the live snapshot's arrays
  (storage plus CSR), rebuilt by one vectorized splice per array per
  event window. It emits **epoch-versioned CSR snapshots** in O(1):
  each is an ordinary frozen :class:`repro.graph.Graph` wrapping the
  read-only state arrays (mmap-saveable through the ``repro.store``
  format), plus a :class:`GraphDelta` naming exactly what changed since
  the previous snapshot.
- :mod:`repro.stream.prequential` — sliding-window training with
  prequential (test-then-train) evaluation driving the existing seal
  trainer/evaluator; a zero-mutation stream reproduces the offline
  evaluator bit for bit.
- :mod:`repro.stream.drift` — label/degree/attribute distribution
  shift and prequential-accuracy decay, exported through ``repro.obs``.

The :class:`GraphDelta` emitted with each snapshot is what
``repro.serve`` consumes for delta-aware cache invalidation
(:meth:`repro.serve.LinkScorer.invalidate`): only pairs whose k-hop
neighborhood intersects the delta's touched nodes are retired.
"""

from repro.stream.drift import DriftReport, DriftTracker
from repro.stream.events import (
    ADD_EDGE,
    INVALIDATE_EDGE,
    EventBatch,
    events_from_links,
    generate_events,
)
from repro.stream.prequential import (
    PrequentialResult,
    StreamConfig,
    WindowRecord,
    run_prequential,
)
from repro.stream.snapshot import GraphDelta, Snapshot, StreamingGraph

__all__ = [
    "ADD_EDGE",
    "INVALIDATE_EDGE",
    "DriftReport",
    "DriftTracker",
    "EventBatch",
    "GraphDelta",
    "PrequentialResult",
    "Snapshot",
    "StreamConfig",
    "StreamingGraph",
    "WindowRecord",
    "events_from_links",
    "generate_events",
    "run_prequential",
]
