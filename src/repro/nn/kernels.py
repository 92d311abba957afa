"""Sorted segment-kernel engine: precomputed plans for scatter hot paths.

Every GNN forward/backward in this library bottoms out in segmented
reductions over a destination-index array (``segment_sum`` /
``segment_softmax`` and the ``gather``-backward
scatter-add in :mod:`repro.nn.indexing`). The straightforward NumPy
spelling, ``np.add.at`` / ``np.maximum.at``, is unbuffered and
order-preserving — and for multi-column operands it takes the generic
slow path, which is 3–20× slower than a contiguous reduction. Worse,
it rediscovers the segment structure on *every* op, *every* layer,
*every* epoch, even though the topology of a batch never changes.

:class:`SegmentPlan` factors the structure out: given ``(index,
num_segments)`` it precomputes once

* per-segment ``counts`` and the CSR-style ``indptr`` offsets,
* the stable argsort ``order`` grouping rows by segment (identity when
  the index is already sorted — batch vectors always are),
* ``starts`` — reduceat offsets over the *non-empty* segments — and the
  ``empty`` mask,
* lazily, a ``scipy.sparse`` CSR scatter matrix whose row ``s`` selects
  the rows of segment ``s`` in stable order.

and then implements each reduction as a contiguous kernel over the plan:

* ``segment_sum``: 1-D operands go through ``np.bincount`` (a tight
  sequential C loop); n-D operands through one CSR × dense matmul
  (sequential per-row accumulation). Both visit the addends of each
  segment in original row order, so the results are **bit-identical**
  to an ``np.add.at`` scatter — same floats, same rounding. (The
  textbook ``np.add.reduceat`` spelling is *not* used for sums because
  its pairwise summation associates differently from ``np.add.at`` in
  the last ulp; bit-identity with the scatter reference is a hard
  requirement here.)
* ``segment_softmax``: sort + ``np.maximum.reduceat`` over the plan
  for the stability shift (max is exactly associative, so sorted
  reduction is bit-safe).

The plan costs one ``argsort`` + ``bincount``; callers amortize it via
:class:`PlanCache` (memoized per :class:`~repro.graph.batch.GraphBatch`,
carried across epochs by :class:`~repro.data.store.SubgraphStore`).

These kernels are the only implementation of the segment ops. The
``np.add.at`` reference versions they are validated against live in
``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from repro import obs
from repro.nn.dtype import FLOAT64, get_compute_dtype

__all__ = ["SegmentPlan", "PlanCache"]


def _as_compute(data: np.ndarray) -> np.ndarray:
    """Kernel operand coercion: keep float dtypes, lift others to policy.

    Planned kernels are dtype-preserving — float32 in, float32 out —
    so the compute policy set at tensor construction flows through the
    whole segment engine without further casts.
    """
    data = np.asarray(data)
    if data.dtype.kind != "f":
        data = data.astype(get_compute_dtype())
    return data


# --------------------------------------------------------------------- #
# SegmentPlan
# --------------------------------------------------------------------- #


class SegmentPlan:
    """Precomputed reduction structure for one ``(index, num_segments)``.

    Parameters
    ----------
    index: integer array of shape ``(E,)`` with values in
        ``[0, num_segments)`` — the destination segment of each row.
    num_segments: number of output rows ``N``.

    Attributes
    ----------
    counts: ``(N,)`` int64 rows per segment.
    indptr: ``(N + 1,)`` int64 CSR-style offsets into the sorted order.
    order: ``(E,)`` int64 stable permutation grouping rows by segment
        (``np.arange(E)`` when ``index`` is already non-decreasing).
    starts: reduceat offsets of the non-empty segments.
    empty: ``(N,)`` bool mask of segments with no rows.
    """

    __slots__ = (
        "index",
        "num_segments",
        "size",
        "counts",
        "indptr",
        "order",
        "starts",
        "nonempty",
        "empty",
        "is_sorted",
        "_matrix",
        "_sorted_matrix",
        "_sorted_index",
        "_inverse",
    )

    def __init__(self, index: np.ndarray, num_segments: int):
        index = np.asarray(index)
        if index.dtype.kind not in "iu":
            raise TypeError("index must be an integer array")
        if index.ndim != 1:
            raise ValueError("index must be 1-D")
        num_segments = int(num_segments)
        if num_segments < 0:
            raise ValueError("num_segments must be non-negative")
        if index.size and (index.min() < 0 or index.max() >= num_segments):
            raise ValueError("index out of range for num_segments")
        self.index = index
        self.num_segments = num_segments
        self.size = int(index.size)
        self.counts = np.bincount(index, minlength=num_segments)
        self.indptr = np.concatenate([[0], np.cumsum(self.counts)]).astype(np.int64)
        self.is_sorted = bool(index.size == 0 or np.all(index[:-1] <= index[1:]))
        if self.is_sorted:
            # Batch vectors (and presorted edge lists) skip the argsort.
            self.order = np.arange(self.size, dtype=np.int64)
        else:
            self.order = np.argsort(index, kind="stable")
        self.nonempty = self.counts > 0
        self.empty = ~self.nonempty
        self.starts = self.indptr[:-1][self.nonempty]
        self._matrix = {}
        self._sorted_matrix = {}
        self._sorted_index = None
        self._inverse = None
        obs.count("kernels.plan.built")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SegmentPlan(size={self.size}, num_segments={self.num_segments})"

    def check(self, index: np.ndarray, num_segments: int) -> None:
        """Cheap compatibility guard for ops handed an external plan.

        Verifies the shape contract (not element equality — that would
        cost as much as building the plan). Callers own content validity.
        """
        if num_segments != self.num_segments or len(index) != self.size:
            raise ValueError(
                f"plan built for ({self.size} rows, {self.num_segments} segments) "
                f"used with ({len(index)} rows, {num_segments} segments)"
            )

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    def _scatter_matrix(self, dtype):
        """Lazily built ``(N, E)`` CSR matrix summing rows per segment.

        Cached per dtype — a float64 matrix would upcast a float32
        operand through the matmul, defeating the compute policy.
        """
        dtype = np.dtype(dtype)
        matrix = self._matrix.get(dtype.str)
        if matrix is None:
            matrix = self._matrix[dtype.str] = sparse.csr_matrix(
                (
                    np.ones(self.size, dtype=dtype),
                    self.order.astype(np.int32),
                    self.indptr.astype(np.int32),
                ),
                shape=(self.num_segments, self.size),
            )
        return matrix

    def take_sorted(self, data: np.ndarray) -> np.ndarray:
        """``data`` permuted into segment-grouped order (no copy if sorted).

        ``np.take`` rather than ``data[self.order]`` — its contiguous
        row-copy specialization is several times faster than generic
        fancy indexing, and a pure permutation is bit-exact either way.
        """
        return data if self.is_sorted else np.take(data, self.order, axis=0)

    def inverse_order(self) -> np.ndarray:
        """Permutation undoing :attr:`order` (cached; gather beats scatter)."""
        if self._inverse is None:
            inverse = np.empty(self.size, dtype=np.int64)
            inverse[self.order] = np.arange(self.size, dtype=np.int64)
            self._inverse = inverse
        return self._inverse

    def segment_sum(self, data: np.ndarray) -> np.ndarray:
        """Per-segment sums, bit-identical to the ``np.add.at`` scatter."""
        with obs.trace("kernel.segment_sum"):
            data = _as_compute(data)
            tail = data.shape[1:]
            if self.size == 0:
                return np.zeros((self.num_segments,) + tail, dtype=data.dtype)
            if data.ndim == 1 and data.dtype == FLOAT64:
                return np.bincount(
                    self.index, weights=data, minlength=self.num_segments
                )
            if data.ndim == 1:
                # bincount accumulates in float64 — that would round
                # differently from a float32 ``np.add.at`` scatter, so
                # reduced precision keeps bit-identity via the CSR path.
                return self.segment_sum(data.reshape(self.size, 1)).reshape(
                    self.num_segments
                )
            flat = np.ascontiguousarray(data.reshape(self.size, -1))
            matrix = self._scatter_matrix(data.dtype)
            return (matrix @ flat).reshape((self.num_segments,) + tail)

    def _sorted_segment_sum(self, data: np.ndarray) -> np.ndarray:
        """Per-segment sums of *already segment-sorted* rows.

        Stable sorting preserves the original relative order of each
        segment's rows, and both kernels below accumulate each segment
        sequentially in that order — so this is bit-identical to
        ``np.add.at`` over the unsorted data.
        """
        tail = data.shape[1:]
        if self._sorted_index is None:
            self._sorted_index = (
                self.index if self.is_sorted else self.index[self.order]
            )
        if data.ndim == 1 and data.dtype == FLOAT64:
            return np.bincount(
                self._sorted_index, weights=data, minlength=self.num_segments
            )
        if data.ndim == 1:
            return self._sorted_segment_sum(data.reshape(self.size, 1)).reshape(
                self.num_segments
            )
        flat = np.ascontiguousarray(data.reshape(self.size, -1))
        out = self._sorted_scatter_matrix(data.dtype) @ flat
        return out.reshape((self.num_segments,) + tail)

    def _sorted_scatter_matrix(self, dtype):
        """CSR summing *presorted* rows per segment, cached per dtype."""
        if self.is_sorted:
            return self._scatter_matrix(dtype)
        dtype = np.dtype(dtype)
        matrix = self._sorted_matrix.get(dtype.str)
        if matrix is None:
            matrix = self._sorted_matrix[dtype.str] = sparse.csr_matrix(
                (
                    np.ones(self.size, dtype=dtype),
                    np.arange(self.size, dtype=np.int32),
                    self.indptr.astype(np.int32),
                ),
                shape=(self.num_segments, self.size),
            )
        return matrix

    def segment_softmax(self, data: np.ndarray) -> np.ndarray:
        """Fused per-segment softmax, bit-identical to the scatter reference.

        Runs entirely in the segment-sorted domain — one permutation in,
        ``maximum.reduceat`` for the stability shift, ``np.repeat`` (by
        segment counts) instead of per-row fancy gathers to broadcast the
        per-segment max and normalizer, and one inverse permutation out.
        The normalizer sum goes through :meth:`_sorted_segment_sum`, so
        every float matches the ``np.maximum.at``/``np.add.at`` reference
        exactly: max is exactly associative, the elementwise steps see
        identical operands, and the sums accumulate in identical order.
        """
        with obs.trace("kernel.segment_softmax"):
            data = _as_compute(data)
            if self.size == 0:
                return np.zeros_like(data)
            if data.ndim == 1:
                # 1-D ufunc.at has a fast indexed loop in NumPy >= 1.24;
                # the sort/unsort round trip cannot beat it there.
                seg_max = np.full(self.num_segments, -np.inf, dtype=data.dtype)
                np.maximum.at(seg_max, self.index, data)
                seg_max[~np.isfinite(seg_max)] = 0.0
                expd = np.exp(data - seg_max[self.index])
                denom = self.segment_sum(expd)
                denom = np.where(denom > 0, denom, 1.0)
                return expd / denom[self.index]
            sorted_data = self.take_sorted(data)
            live_counts = self.counts[self.nonempty]
            seg_max = np.maximum.reduceat(sorted_data, self.starts, axis=0)
            seg_max[~np.isfinite(seg_max)] = 0.0  # all-(-inf)/nan segments
            # Broadcast per-segment rows by np.repeat (cheap, contiguous)
            # and reuse the repeated buffers in place — identical floats,
            # three fewer (E, ...) allocations.
            expd = np.repeat(seg_max, live_counts, axis=0)
            np.subtract(sorted_data, expd, out=expd)
            np.exp(expd, out=expd)
            denom = self._sorted_segment_sum(expd)[self.nonempty]
            denom = np.where(denom > 0, denom, 1.0)
            out_sorted = np.repeat(denom, live_counts, axis=0)
            np.divide(expd, out_sorted, out=out_sorted)
            if self.is_sorted:
                return out_sorted
            return np.take(out_sorted, self.inverse_order(), axis=0)


# --------------------------------------------------------------------- #
# PlanCache
# --------------------------------------------------------------------- #


class PlanCache:
    """Memoized :class:`SegmentPlan` views of one batched graph.

    One instance per collated batch (see ``GraphBatch.plans``) lazily
    builds and caches exactly the structures the layers ask for:

    * ``dst()`` / ``src()`` — plans over the raw edge endpoints,
    * ``dst(loops=True)`` / ``src(loops=True)`` — plans over the
      self-loop-augmented edge list,
    * ``loop_edge_index()`` — the augmented ``(2, E + N)`` edge list
      itself, one ``i→i`` arc per node appended (built once, not every
      forward),
    * ``gcn_coeff()`` — the GCN symmetric degree normalization per arc,
    * ``loop_edge_attr(attr)`` — ``attr`` zero-padded for the loops,
    * ``node()`` — the plan over the node→graph ``batch`` vector
      (SortPooling counts/starts, center-pool offsets).

    Every accessor records a ``kernels.plan_cache.hits`` /
    ``kernels.plan_cache.misses`` counter, so ``python -m repro profile``
    can report the cache hit rate. Instances are carried across epochs
    by :class:`~repro.data.store.SubgraphStore` keyed on batch
    composition; the underlying buffers are immutable by convention, so
    a cached plan stays valid for any batch with identical content.
    """

    __slots__ = (
        "edge_index",
        "num_nodes",
        "batch",
        "num_graphs",
        "_plans",
        "_loop_edge_index",
        "_gcn_coeff",
        "_loop_zeros",
    )

    def __init__(
        self,
        edge_index: np.ndarray,
        num_nodes: int,
        *,
        batch: Optional[np.ndarray] = None,
        num_graphs: Optional[int] = None,
    ):
        self.edge_index = edge_index
        self.num_nodes = int(num_nodes)
        self.batch = batch
        self.num_graphs = num_graphs
        self._plans: Dict[Tuple[str, bool], SegmentPlan] = {}
        self._loop_edge_index: Optional[np.ndarray] = None
        self._gcn_coeff: Dict[str, np.ndarray] = {}
        self._loop_zeros: Dict[Tuple[int, str], np.ndarray] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache(edges={self.edge_index.shape[1]}, nodes={self.num_nodes}, "
            f"plans={len(self._plans)})"
        )

    # -- memoization plumbing ------------------------------------------ #
    def _memo(self, key, build):
        value = self._plans.get(key)
        if value is None:
            obs.count("kernels.plan_cache.misses")
            value = self._plans[key] = build()
        else:
            obs.count("kernels.plan_cache.hits")
        return value

    # -- edge-endpoint plans ------------------------------------------- #
    def dst(self, loops: bool = False) -> SegmentPlan:
        """Plan over destination endpoints (segment ops aggregate here)."""
        ei = self.loop_edge_index() if loops else self.edge_index
        return self._memo(("dst", loops), lambda: SegmentPlan(ei[1], self.num_nodes))

    def src(self, loops: bool = False) -> SegmentPlan:
        """Plan over source endpoints (the ``gather``-backward scatter)."""
        ei = self.loop_edge_index() if loops else self.edge_index
        return self._memo(("src", loops), lambda: SegmentPlan(ei[0], self.num_nodes))

    def node(self) -> SegmentPlan:
        """Plan over the node→graph ``batch`` vector (always presorted)."""
        if self.batch is None or self.num_graphs is None:
            raise ValueError("this PlanCache was built without a batch vector")
        return self._memo(
            ("node", False), lambda: SegmentPlan(self.batch, self.num_graphs)
        )

    # -- cached self-loop topology ------------------------------------- #
    def loop_edge_index(self) -> np.ndarray:
        """The self-loop-augmented edge list ``(2, E + N)``, built once."""
        if self._loop_edge_index is None:
            obs.count("kernels.plan_cache.misses")
            loops = np.arange(self.num_nodes, dtype=np.int64)
            self._loop_edge_index = np.concatenate(
                [self.edge_index, np.stack([loops, loops])], axis=1
            )
        else:
            obs.count("kernels.plan_cache.hits")
        return self._loop_edge_index

    def gcn_coeff(self, dtype=None) -> np.ndarray:
        """Per-arc ``D̂^{-1/2} Â D̂^{-1/2}`` weights over the loop edges.

        Cached per compute dtype (``dtype=None`` resolves to the active
        policy); the float32 entry is the float64 computation narrowed
        once, not a reduced-precision recomputation.
        """
        dtype = np.dtype(dtype) if dtype is not None else get_compute_dtype()
        coeff = self._gcn_coeff.get(dtype.str)
        if coeff is None:
            obs.count("kernels.plan_cache.misses")
            src, dst = self.loop_edge_index()
            deg = self.dst(loops=True).counts.astype(FLOAT64)
            inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))
            coeff = (inv_sqrt[src] * inv_sqrt[dst]).astype(dtype, copy=False)
            self._gcn_coeff[dtype.str] = coeff
        else:
            obs.count("kernels.plan_cache.hits")
        return coeff

    def loop_edge_attr(self, edge_attr: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """``edge_attr`` with zero rows appended for the self-loops.

        Only the zero loop-rows block is cached (per width); the
        concatenation itself is recomputed so callers that mutate
        ``edge_attr`` in place — e.g. ablations rewriting attributes
        between forwards — always see current values.
        """
        if edge_attr is None:
            return None
        width = int(edge_attr.shape[1])
        dtype = edge_attr.dtype if edge_attr.dtype.kind == "f" else get_compute_dtype()
        key = (width, dtype.str)
        loop_rows = self._loop_zeros.get(key)
        if loop_rows is None:
            obs.count("kernels.plan_cache.misses")
            loop_rows = self._loop_zeros[key] = np.zeros(
                (self.num_nodes, width), dtype=dtype
            )
        else:
            obs.count("kernels.plan_cache.hits")
        return np.concatenate([edge_attr, loop_rows], axis=0)
