"""repro.serve — the online link-scoring service (ROADMAP item 1).

The deployment path the paper motivates: a trained AM-DGCNN completing
missing links in a live knowledge graph. Three layers:

* :class:`ModelBundle` — the one-file artifact (weights + architecture
  spec + feature recipe + extraction settings + class names) a server or
  offline caller is constructed from.
* :class:`LinkScorer` — the typed scoring facade
  (:class:`ScoreRequest` → :class:`ScoreResult`), shared by every
  scoring path. Row-invariant forwards and content-keyed extraction
  streams make its probabilities bitwise independent of how requests
  are grouped; a ``(pair, graph_version)`` score cache with explicit
  :meth:`LinkScorer.invalidate` reuses answers until the graph changes.
* :class:`ScoringServer` — an in-process coalescing queue over one
  scorer: micro-batching with admission control (typed
  :class:`Rejected` results, never mid-pipeline exceptions) and
  deadline-based shedding before extraction.

``python -m repro serve`` replays a scripted concurrent workload
through the stack (:mod:`repro.serve.replay`).
"""

from repro.serve.bundle import BUNDLE_VERSION, BundleError, ModelBundle
from repro.serve.scorer import (
    CompatibilityError,
    LinkScorer,
    Rejected,
    ScoreOutcome,
    ScoreRequest,
    ScoreResult,
)
from repro.serve.server import ScoringServer, ServeConfig

__all__ = [
    "BUNDLE_VERSION",
    "BundleError",
    "ModelBundle",
    "CompatibilityError",
    "LinkScorer",
    "ScoreRequest",
    "ScoreResult",
    "ScoreOutcome",
    "Rejected",
    "ScoringServer",
    "ServeConfig",
]
