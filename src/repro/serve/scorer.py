"""Typed link scoring: ``ScoreRequest`` → ``LinkScorer`` → ``ScoreResult``.

:class:`LinkScorer` is the one scoring path — the in-process server and
the offline callers (the profile CLI, the benchmarks) all go through it,
so there is exactly one place where extraction settings, feature recipes
and the model meet. Three properties it guarantees:

* **Compatibility is checked up front.** A bundle whose feature recipe
  or edge-attribute width disagrees with the supplied graph raises
  :class:`CompatibilityError` at construction, not a shape error five
  layers into the forward pass.
* **Scores are composition-independent, bitwise.** Every layer of the
  forward computes a graph's row from that graph alone: the matrix
  products follow :class:`~repro.nn.tensor.Tensor`'s row-invariant rule
  (a path chosen by the weight's shape, never by the row count), and a
  pair's extraction stream is keyed on the pair *content*, not on
  arrival order. A pair therefore gets bit-identical probabilities
  whether it is scored alone, inside a coalesced micro-batch, at any
  position in it, or after a cache hit — the property the server's
  coalescing relies on. Forwards carry only the requested rows.
* **Work is reused.** Extracted subgraphs live in a growing
  :class:`~repro.data.store.SubgraphStore` (bulk extraction engine, plan
  cache and all), and final probabilities are memoized per
  ``(pair, graph_version)`` until :meth:`LinkScorer.invalidate`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.data.extraction import ensure_extracted
from repro.data.loader import collate_from_store
from repro.data.store import SubgraphStore
from repro.graph.structure import Graph
from repro.graph.traversal import k_hop_union
from repro.nn import dtype as _dtype
from repro.nn import functional as F
from repro.nn.tensor import no_grad
from repro.serve.bundle import ModelBundle
from repro.seal.features import FeatureConfig
from repro.utils.rng import RngLike

__all__ = [
    "CompatibilityError",
    "ScoreRequest",
    "ScoreResult",
    "Rejected",
    "LinkScorer",
]


#: pair slots (and subgraph-store rows) reserved up front; both double
#: whenever a new pair needs one more
_INITIAL_CAPACITY = 256


class CompatibilityError(ValueError):
    """Bundle and graph disagree (feature recipe, widths, node space)."""


def _as_pairs(pairs) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim == 1 and pairs.shape == (2,):
        pairs = pairs[None, :]
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (M, 2)")
    return pairs


@dataclass
class ScoreRequest:
    """One scoring query: node pairs plus delivery constraints.

    ``deadline_s`` is an *absolute* :func:`time.monotonic` instant; use
    :meth:`with_budget` to spell it as a relative latency budget. A
    request whose deadline has passed is dropped before any extraction
    work is spent on it.
    """

    pairs: np.ndarray
    request_id: Optional[str] = None
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        self.pairs = _as_pairs(self.pairs)

    @classmethod
    def with_budget(
        cls, pairs, budget_s: Optional[float], request_id: Optional[str] = None
    ) -> "ScoreRequest":
        """Build a request whose deadline is ``budget_s`` from now."""
        deadline = None if budget_s is None else time.monotonic() + budget_s
        return cls(pairs, request_id=request_id, deadline_s=deadline)

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_s is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_s


@dataclass
class ScoreResult:
    """Per-pair class probabilities plus serving metadata.

    ``probs[i]`` sums to one; ``predicted[i]`` is its argmax, an index
    into ``class_names``. ``num_nodes`` /
    ``num_edges`` report each pair's enclosing subgraph; ``cached``
    marks pairs answered from the score cache. ``timing`` breaks the
    request into ``extract_s`` / ``forward_s`` / ``total_s``.
    """

    probs: np.ndarray
    predicted: np.ndarray
    class_names: Tuple[str, ...]
    num_nodes: np.ndarray
    num_edges: np.ndarray
    cached: np.ndarray
    timing: Dict[str, float] = field(default_factory=dict)
    request_id: Optional[str] = None

    ok = True

    def narrow(self, lo: int, hi: int, request_id: Optional[str] = None) -> "ScoreResult":
        """Row-slice view for one member request of a coalesced batch."""
        return ScoreResult(
            probs=self.probs[lo:hi],
            predicted=self.predicted[lo:hi],
            class_names=self.class_names,
            num_nodes=self.num_nodes[lo:hi],
            num_edges=self.num_edges[lo:hi],
            cached=self.cached[lo:hi],
            timing=dict(self.timing),
            request_id=request_id,
        )


@dataclass
class Rejected:
    """A request the service declined — typed, not an exception.

    ``reason`` is one of ``"queue_full"`` (admission control shed it),
    ``"deadline"`` (its budget expired before scoring began) or
    ``"shutdown"`` (the server stopped with the request still queued).
    """

    reason: str
    detail: str = ""
    request_id: Optional[str] = None

    ok = False


ScoreOutcome = Union[ScoreResult, Rejected]


class _ServeTask:
    """Duck-typed task the extraction engine runs against.

    Looks like a :class:`~repro.seal.LinkTask` to
    :func:`repro.data.extraction.ensure_extracted` but its pair
    table grows as the scorer meets new pairs, and ``link_key`` keys
    each pair's extraction stream on its content (``"u:v"``) so the
    subgraph — and hence the score — is independent of arrival order.
    """

    def __init__(self, graph: Graph, bundle: ModelBundle):
        self.graph = graph
        self.name = bundle.task_name
        self.num_hops = bundle.num_hops
        self.subgraph_mode = bundle.subgraph_mode
        self.max_subgraph_nodes = bundle.max_subgraph_nodes
        self.edge_attr_dim = bundle.edge_attr_dim
        self.feature_config = bundle.feature_config
        self.pairs = np.empty((0, 2), dtype=np.int64)

    def link_key(self, index: int) -> str:
        u, v = self.pairs[index]
        return f"{int(u)}:{int(v)}"


def _validate_compatibility(bundle: ModelBundle, graph: Graph) -> None:
    fc: FeatureConfig = bundle.feature_config
    if fc.num_node_types > 0:
        observed = int(graph.node_type.max()) + 1 if graph.num_nodes else 0
        if observed > fc.num_node_types:
            raise CompatibilityError(
                f"graph has node types up to {observed - 1} but the bundle's "
                f"feature recipe one-hots only {fc.num_node_types} types"
            )
    if fc.explicit_dim > 0:
        if graph.node_features is None:
            raise CompatibilityError(
                f"bundle expects {fc.explicit_dim}-wide explicit node features "
                "but the graph carries none"
            )
        if graph.node_features.shape[1] != fc.explicit_dim:
            raise CompatibilityError(
                f"graph node-feature width {graph.node_features.shape[1]} != "
                f"bundle explicit_dim {fc.explicit_dim}"
            )
    if fc.embeddings is not None and fc.embeddings.shape[0] != graph.num_nodes:
        raise CompatibilityError(
            f"bundle embeddings cover {fc.embeddings.shape[0]} nodes but the "
            f"graph has {graph.num_nodes}"
        )
    if bundle.edge_attr_dim > 0:
        if graph.edge_attr is None:
            raise CompatibilityError(
                f"bundle expects {bundle.edge_attr_dim}-wide edge attributes "
                "but the graph carries none"
            )
        if graph.edge_attr.shape[1] != bundle.edge_attr_dim:
            raise CompatibilityError(
                f"graph edge-attribute width {graph.edge_attr.shape[1]} != "
                f"bundle edge_attr_dim {bundle.edge_attr_dim}"
            )


class LinkScorer:
    """Score arbitrary node pairs of one graph with a bundled model.

    Parameters
    ----------
    bundle: the trained-model artifact (weights + recipe + settings).
    graph: the knowledge graph to serve; validated against the bundle
        up front (:class:`CompatibilityError` on any disagreement).
    micro_batch: at most this many subgraphs per forward pass. It bounds
        a forward's memory, not its results: scores are bitwise the same
        at any width.
    cache_scores: memoize probabilities per ``(pair, graph_version)``.
    rng: override for the bundle's extraction seed (``None`` = bundle's).

    Extraction and forward passes run under the bundle's recorded
    precision policy. Under ``"float32"`` the model weights, the subgraph
    store and every forward run reduced; returned probabilities are
    always float64.
    """

    def __init__(
        self,
        bundle: ModelBundle,
        graph: Graph,
        *,
        micro_batch: int = 16,
        cache_scores: bool = True,
        rng: Optional[RngLike] = None,
    ):
        if micro_batch < 1:
            raise ValueError("micro_batch must be >= 1")
        _validate_compatibility(bundle, graph)
        self.bundle = bundle
        self.graph = graph
        self.compute_dtype = _dtype.resolve_dtype(bundle.compute_dtype)
        self.model = bundle.build_model()
        if self.compute_dtype != _dtype.FLOAT64:
            _dtype.cast_module(self.model, self.compute_dtype)
        self.micro_batch = int(micro_batch)
        self.cache_scores = bool(cache_scores)
        self._seed: RngLike = bundle.extraction_seed if rng is None else rng
        self._task = _ServeTask(graph, bundle)
        self._capacity = max(_INITIAL_CAPACITY, self.micro_batch)
        self._pairs = np.empty((self._capacity, 2), dtype=np.int64)
        self._task.pairs = self._pairs
        self.store = SubgraphStore(
            self._capacity,
            bundle.feature_config.width,
            edge_attr_dim=0 if graph.edge_attr is None else graph.edge_attr.shape[1],
            float_dtype=self.compute_dtype,
        )
        self._slots: Dict[Tuple[int, int], int] = {}
        self._cache: Dict[Tuple[int, int], np.ndarray] = {}
        # Slots are assigned from a monotone counter (not len(_slots)):
        # delta invalidation removes keys from _slots, and reusing a
        # retired key's slot for a different pair would alias its stale
        # store entry.
        self._next_slot = 0
        # Pairs registered through warm(), in registration order; these
        # are re-extracted after an invalidation retires them so warmed
        # latency survives graph changes.
        self._warm: Dict[Tuple[int, int], None] = {}
        self._graph_version = 0

    def warm(self, pairs) -> int:
        """Pre-extract the enclosing subgraphs of ``pairs`` into the store.

        The deployment-side counterpart of :func:`repro.data.warm`: run at
        start-up (e.g. over the expected hot pairs) so first requests
        skip extraction — the usual pattern for an mmap-served graph,
        where the process boots instantly and warming is the only cold
        cost left. Returns how many distinct pairs are now extracted.

        Warmed pairs stay registered: after :meth:`invalidate` retires
        them they are re-extracted against the new graph automatically
        (counted under ``serve.cache.rewarmed_pairs``).
        """
        pairs = _as_pairs(pairs)
        keys = list(dict.fromkeys((int(u), int(v)) for u, v in pairs))
        for key in keys:
            self._warm[key] = None
        slots = np.asarray([self._slot_of(k) for k in keys], dtype=np.int64)
        self._ensure_extracted(slots)
        obs.count("serve.warmed_pairs", float(len(keys)))
        return len(keys)

    # ------------------------------------------------------------------ #
    # graph versioning / cache invalidation
    # ------------------------------------------------------------------ #
    def invalidate(
        self,
        graph: Optional[Graph] = None,
        *,
        delta=None,
    ) -> int:
        """Declare the graph changed: retire stale scores and subgraphs.

        Without ``delta`` this is the full clear: every memoized
        probability and every packed subgraph is dropped (extractions
        depend on the graph's adjacency). With ``delta`` — a
        :class:`repro.stream.GraphDelta` or any object exposing
        ``touched_nodes``, or a plain array of touched node ids — the
        invalidation is **delta-aware**: only pairs whose ``num_hops``
        neighborhood (in the old *or* the new graph) intersects the
        touched nodes are retired. Survivors keep their packed
        subgraphs *and* their cached scores, which is sound because an
        enclosing subgraph disjoint from every touched node's k-hop
        neighborhood is unchanged by the delta — its extraction, and
        hence its probabilities, are bit-identical on the new graph.

        Pass the new :class:`Graph` to swap it in (re-validated against
        the bundle); omit it when the caller mutated the graph in place.
        Retired pairs previously registered via :meth:`warm` are
        re-extracted against the new graph.
        Returns the new graph version.
        """
        if graph is not None:
            _validate_compatibility(self.bundle, graph)
        retired: List[Tuple[int, int]] = []
        full_clear = delta is None
        if not full_clear:
            touched = getattr(delta, "touched_nodes", None)
            touched = np.asarray(
                delta if touched is None else touched, dtype=np.int64
            ).ravel()
            new_graph = self.graph if graph is None else graph
            limit = min(self.graph.num_nodes, new_graph.num_nodes)
            if touched.size and (touched.min() < 0 or touched.max() >= limit):
                raise ValueError("delta touches nodes outside the graph")
            # A pair's enclosing subgraph can reach a touched node
            # through the old adjacency (an edge was removed near it) or
            # the new one (an edge was added near it) — grow the k-hop
            # halo in both graphs before retiring.
            k = self.bundle.num_hops
            affected = np.zeros(
                max(self.graph.num_nodes, new_graph.num_nodes), dtype=bool
            )
            if touched.size:
                affected[k_hop_union(self.graph, touched, k)] = True
                if new_graph is not self.graph:
                    affected[k_hop_union(new_graph, touched, k)] = True
            retired = [
                key for key in self._slots if affected[key[0]] or affected[key[1]]
            ]
            if len(retired) == len(self._slots) and self._slots:
                full_clear = True  # the delta reached everything anyway

        if graph is not None:
            self.graph = graph
            self._task.graph = graph
        self._graph_version += 1

        if full_clear:
            retired = list(self._warm)
            self._cache.clear()
            self._slots.clear()
            self._next_slot = 0
            self.store.clear()
            self.store.reserve(self._capacity)
            obs.count("serve.cache.invalidations")
        else:
            slots = np.asarray(
                [self._slots.pop(key) for key in retired], dtype=np.int64
            )
            for key in retired:
                self._cache.pop(key, None)
            self.store.evict(slots)
            obs.count("serve.cache.delta_invalidations")
            obs.count("serve.cache.retired_pairs", float(len(retired)))
            obs.count("serve.cache.survivor_pairs", float(len(self._slots)))

        rewarm_keys = [key for key in retired if key in self._warm]
        if rewarm_keys:
            slots = np.asarray(
                [self._slot_of(key) for key in rewarm_keys], dtype=np.int64
            )
            self._ensure_extracted(slots)
            obs.count("serve.cache.rewarmed_pairs", float(len(rewarm_keys)))
        return self._graph_version

    # ------------------------------------------------------------------ #
    # pair slots and extraction
    # ------------------------------------------------------------------ #
    def _slot_of(self, key: Tuple[int, int]) -> int:
        slot = self._slots.get(key)
        if slot is not None:
            return slot
        slot = self._next_slot
        self._next_slot += 1
        if slot >= self._capacity:
            self._capacity *= 2
            grown = np.empty((self._capacity, 2), dtype=np.int64)
            grown[:slot] = self._pairs[:slot]
            self._pairs = grown
            self._task.pairs = grown
            self.store.reserve(self._capacity)
        self._pairs[slot] = key
        self._slots[key] = slot
        return slot

    def _ensure_extracted(self, slots: np.ndarray) -> None:
        with _dtype.compute_dtype(self.compute_dtype):
            ensure_extracted(self.store, self._task, self._seed, slots)

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def _forward_probs(self, slots: np.ndarray) -> np.ndarray:
        """Probabilities for distinct uncached slots.

        Chunks of at most ``micro_batch`` slots run one forward each;
        each row's bits do not depend on the chunk it rides in.
        """
        B = self.micro_batch
        # Probabilities ship to callers in float64 regardless of policy.
        out = np.empty((len(slots), self.bundle.num_classes), dtype=_dtype.FLOAT64)
        edge_dim = self.bundle.edge_attr_dim
        with no_grad(), _dtype.compute_dtype(self.compute_dtype):
            for lo in range(0, len(slots), B):
                chunk = slots[lo : lo + B]
                obs.observe("serve.batch.occupancy", len(chunk) / B)
                batch = collate_from_store(self.store, chunk, edge_attr_dim=edge_dim)
                with obs.trace("forward"):
                    out[lo : lo + len(chunk)] = F.softmax(self.model(batch), axis=-1).data
        return out

    def score(self, pairs) -> ScoreResult:
        """Class probabilities for ``pairs`` (any ``(M, 2)`` array).

        Duplicate pairs are scored once; cached pairs are answered from
        the score cache; the rest are extracted (batched) and run
        through forwards of at most ``micro_batch`` rows. The returned
        rows are bit-identical no matter how pairs are grouped into
        requests or ordered within one.
        """
        t0 = time.perf_counter()
        pairs = _as_pairs(pairs)
        keys = [(int(u), int(v)) for u, v in pairs]

        # Invalidation removes every stale key (all of them on a full
        # clear, the delta-affected ones otherwise), so a key's presence
        # already implies validity under the current version.
        fresh: List[Tuple[int, int]] = []
        seen = set()
        cache_hits = 0
        for key in keys:
            if self.cache_scores and key in self._cache:
                cache_hits += 1
            elif key not in seen:
                seen.add(key)
                fresh.append(key)
        obs.count("serve.cache.hits", float(cache_hits))
        obs.count("serve.cache.misses", float(len(keys) - cache_hits))

        was_training = self.model.training
        self.model.eval()
        extract_s = forward_s = 0.0
        try:
            with obs.trace("inference"):
                if fresh:
                    slots = np.asarray([self._slot_of(k) for k in fresh], dtype=np.int64)
                    te = time.perf_counter()
                    self._ensure_extracted(slots)
                    extract_s = time.perf_counter() - te
                    tf = time.perf_counter()
                    fresh_probs = self._forward_probs(slots)
                    forward_s = time.perf_counter() - tf
                    for key, row in zip(fresh, fresh_probs):
                        self._cache[key] = row.copy()
        finally:
            self.model.train(was_training)

        fresh_set = set(fresh)
        probs = np.empty((len(keys), self.bundle.num_classes), dtype=_dtype.FLOAT64)
        cached = np.empty(len(keys), dtype=bool)
        num_nodes = np.empty(len(keys), dtype=np.int64)
        num_edges = np.empty(len(keys), dtype=np.int64)
        for i, key in enumerate(keys):
            probs[i] = self._cache[key]
            cached[i] = key not in fresh_set
            slot = self._slots[key]
            num_nodes[i] = self.store.node_count[slot]
            num_edges[i] = self.store.edge_count[slot]
        if not self.cache_scores:
            for key in fresh:
                self._cache.pop(key, None)

        total_s = time.perf_counter() - t0
        obs.count("serve.requests")
        obs.count("serve.pairs", float(len(keys)))
        obs.observe("serve.latency_seconds", total_s)
        return ScoreResult(
            probs=probs,
            predicted=probs.argmax(axis=1),
            class_names=tuple(self.bundle.class_names),
            num_nodes=num_nodes,
            num_edges=num_edges,
            cached=cached,
            timing={
                "extract_s": extract_s,
                "forward_s": forward_s,
                "total_s": total_s,
            },
        )

    def cache_info(self) -> Dict[str, int]:
        """Size of the score cache and the backing subgraph store."""
        return {
            "scores": len(self._cache),
            "subgraphs": len(self.store),
            "graph_version": self._graph_version,
            "warm_pairs": len(self._warm),
        }
