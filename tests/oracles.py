"""Reference implementations the library's hot paths are checked against.

The library runs every hot op through exactly one implementation: the
segment ops through :class:`repro.nn.kernels.SegmentPlan` kernels and
SEAL extraction through the batched sweep of :mod:`repro.graph.bulk`.
The straightforward versions those replaced live here, test-only, as the
oracles of the bit-identity tests:

* :func:`gather`, :func:`segment_sum`, :func:`segment_mean` and
  :func:`segment_softmax` — the ops spelled with
  unbuffered ``np.add.at`` / ``np.maximum.at`` scatters, forward and
  backward. They take (and ignore) ``plan=`` so they drop in anywhere.
* :func:`gat_edge_pass` — the GAT edge pass as the op chain
  :func:`repro.nn.attention.gat_edge_pass` fuses, built from the ops
  above; it takes (and ignores) the same plans.
* :func:`im2col`, :func:`conv1d` and :func:`maxpool1d` — the
  fancy-index gather forwards of :class:`repro.nn.conv.Conv1d` and
  :class:`repro.nn.conv.MaxPool1d` (``data[:, :, idx]`` windows; the
  pool by ``argmax`` + ``take_along_axis``), which the layers replaced
  with strided window views.
* :func:`col2im` and :func:`maxpool1d_grad` — the ``np.add.at``
  backward scatters of :class:`repro.nn.conv.Conv1d` and
  :class:`repro.nn.conv.MaxPool1d`.
* :func:`sort_pool` — SortPooling as the ``(B, k, F)`` block the
  DGCNN readout gathered and masked before its first convolution, and
  :func:`sort_pool_readout` — that block convolved by :func:`conv1d`,
  the chain :class:`repro.models.sort_pool.PooledProjection` fuses.
* :func:`reference_ops` — swaps the library's segment ops and
  :func:`gat_edge_pass`
  into every ``repro`` module that imported the library versions, so a
  whole layer, model or training run can be replayed on the reference
  path.
* :func:`extract_enclosing_subgraph` — per-link enclosing-subgraph
  extraction (two BFS runs and an induced-subgraph scan per link), the
  reference of :func:`repro.graph.bulk.extract_enclosing_subgraphs`.
* :func:`build_packed_sample` — per-link SEAL extraction through
  :func:`extract_enclosing_subgraph`, labelled by :func:`drnl_labels`
  (one BFS pair per subgraph over a copy without the other target's
  arcs, :func:`_distances_without`) and featurized by
  :func:`build_node_features`: the reference of one link's rows of
  :func:`repro.data.extraction.build_packed_samples`.
* :func:`collate` — block-diagonal batching of a list of ``Graph``
  objects with their feature matrices, the reference of
  :func:`repro.data.loader.collate_from_store`.
* :func:`leaky_relu`, :func:`neighbors`, :func:`has_edge`,
  :func:`edge_ids_between` and :func:`bfs_within` — small tensor and
  graph queries only the tests and the references above need.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.data.extraction import _link_rng
from repro.graph.batch import GraphBatch
from repro.graph.structure import Graph
from repro.graph.traversal import bfs_distances
from repro.nn import attention, indexing
from repro.nn.conv import Conv1d
from repro.nn.dtype import get_compute_dtype
from repro.nn.kernels import SegmentPlan
from repro.nn.tensor import Tensor, as_tensor
from repro.seal.features import FeatureConfig, assemble_node_features
from repro.seal.labeling import drnl_labels_from_distances
from repro.utils.rng import ensure_rng


def leaky_relu(x: Tensor, negative_slope: float) -> Tensor:
    a = x.data
    mask = a > 0
    out = np.where(mask, a, negative_slope * a)
    # np.where(mask, g, g * slope) rather than g * np.where(mask, 1, slope):
    # identical floats (x * 1.0 == x), but the scalar operand stays weak
    # so a float32 gradient is not promoted to float64.
    return Tensor._from_op(
        out, (x,), (lambda g: np.where(mask, g, g * negative_slope),), "leaky_relu"
    )


def bfs_within(graph: Graph, source: int, k: Optional[int]) -> np.ndarray:
    """``bfs_distances`` from ``source`` cut at ``k`` hops (``-1`` beyond)."""
    dist = bfs_distances(graph, source)
    if k is not None:
        dist[dist > k] = -1
    return dist


def neighbors(graph: Graph, v: int) -> np.ndarray:
    """Out-neighbors of ``v`` (with duplicates in multigraphs)."""
    indptr, indices, _ = graph.csr()
    return indices[indptr[v] : indptr[v + 1]]


def has_edge(graph: Graph, u: int, v: int) -> bool:
    """Whether arc ``u→v`` exists."""
    return bool(np.isin(v, neighbors(graph, u)))


def edge_ids_between(graph: Graph, u: int, v: int) -> np.ndarray:
    """All arc ids from ``u`` to ``v`` (empty when none)."""
    indptr, indices, edge_ids = graph.csr()
    lo, hi = indptr[u], indptr[u + 1]
    return edge_ids[lo:hi][indices[lo:hi] == v]


def gather(x, index, *, plan=None) -> Tensor:
    x = as_tensor(x)
    index = np.asarray(index)
    shape = x.data.shape

    def vjp(g: np.ndarray) -> np.ndarray:
        full = np.zeros((shape[0],) + g.shape[1:], dtype=g.dtype)
        np.add.at(full, index, g)
        return full

    return Tensor._from_op(np.take(x.data, index, axis=0), (x,), (vjp,), "gather")


def segment_sum(x, index, num_segments, *, plan=None) -> Tensor:
    x = as_tensor(x)
    index = np.asarray(index)
    out = np.zeros((num_segments,) + x.data.shape[1:], dtype=x.data.dtype)
    np.add.at(out, index, x.data)
    return Tensor._from_op(
        out, (x,), (lambda g: np.take(g, index, axis=0),), "segment_sum"
    )


def segment_mean(x, index, num_segments, *, plan=None) -> Tensor:
    sums = segment_sum(x, index, num_segments)
    counts = np.maximum(np.bincount(index, minlength=num_segments), 1.0)
    counts = counts.reshape((num_segments,) + (1,) * (sums.ndim - 1))
    return sums * Tensor(1.0 / counts)


def segment_softmax(logits, index, num_segments, *, plan=None) -> Tensor:
    logits = as_tensor(logits)
    index = np.asarray(index)
    data = logits.data
    seg_max = np.full((num_segments,) + data.shape[1:], -np.inf, dtype=data.dtype)
    np.maximum.at(seg_max, index, data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    expd = np.exp(data - seg_max[index])
    denom = np.zeros_like(seg_max)
    np.add.at(denom, index, expd)
    denom = np.where(denom > 0, denom, 1.0)
    out = expd / denom[index]

    def vjp(g: np.ndarray) -> np.ndarray:
        seg_dot = np.zeros((num_segments,) + g.shape[1:], dtype=g.dtype)
        np.add.at(seg_dot, index, g * out)
        return out * (g - seg_dot[index])

    return Tensor._from_op(out, (logits,), (vjp,), "segment_softmax")


def gat_edge_pass(
    h,
    att_src,
    att_dst,
    edge_index,
    *,
    src_plan=None,
    dst_plan=None,
    he=None,
    att_edge=None,
    edge_in_message=True,
    negative_slope=0.2,
) -> Tensor:
    """The op chain ``GATConv`` ran before its edge pass was fused."""
    src, dst = edge_index
    n = h.shape[0]
    e = src.shape[0]
    _, heads, channels = att_src.shape
    h = h.reshape(n, heads, channels)
    alpha_src = (h * att_src).sum(axis=2)
    alpha_dst = (h * att_dst).sum(axis=2)
    logits = gather(alpha_src, src) + gather(alpha_dst, dst)
    if he is not None:
        he = he.reshape(e, heads, channels)
        logits = logits + (he * att_edge).sum(axis=2)
    alpha = segment_softmax(leaky_relu(logits, negative_slope), dst, n)
    content = gather(h, src)
    if he is not None and edge_in_message:
        content = content + he
    messages = content * alpha.reshape(e, heads, 1)
    return segment_sum(messages, dst, n).reshape(n, heads * channels)


def _windows(length, kernel, stride):
    l_out = (length - kernel) // stride + 1
    return np.arange(l_out)[:, None] * stride + np.arange(kernel)[None, :]


def im2col(data, kernel, stride) -> np.ndarray:
    """Conv1d's ``(B*L_out, C*K)`` im2col matrix, gathered by fancy indexing."""
    b, c, length = data.shape
    idx = _windows(length, kernel, stride)
    return data[:, :, idx].transpose(0, 2, 1, 3).reshape(b * idx.shape[0], c * kernel)


def conv1d(conv, x) -> Tensor:
    """``conv(x)`` with the im2col gathered (:func:`im2col`) and its adjoint
    scattered (:func:`col2im`)."""
    x = as_tensor(x)
    b, c, length = x.shape
    kernel, stride = conv.kernel_size, conv.stride
    l_out = conv.out_length(length)

    def vjp(g2: np.ndarray) -> np.ndarray:
        g4 = g2.reshape(b, l_out, c, kernel).transpose(0, 2, 1, 3)
        return col2im(g4, length, stride, x.data.dtype)

    cols = Tensor._from_op(im2col(x.data, kernel, stride), (x,), (vjp,), "im2col")
    out = cols @ conv.weight
    if conv.bias is not None:
        out = out + conv.bias
    return out.reshape(b, l_out, conv.out_channels).transpose((0, 2, 1))


def maxpool1d(data, kernel, stride) -> np.ndarray:
    """MaxPool1d's output: each gathered window's ``argmax`` tap."""
    windows = data[:, :, _windows(data.shape[-1], kernel, stride)]
    arg = windows.argmax(axis=-1)
    return np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]


def col2im(windows, length, stride, dtype) -> np.ndarray:
    """Conv1d's im2col adjoint: ``np.add.at`` of ``(B, C, L_out, K)``
    window gradients into zeros of ``(B, C, length)``."""
    b, c, _, kernel = windows.shape
    out = np.zeros((b, c, length), dtype=dtype)
    np.add.at(out, (slice(None), slice(None), _windows(length, kernel, stride)), windows)
    return out


def maxpool1d_grad(data, g, kernel, stride) -> np.ndarray:
    """MaxPool1d's input gradient: ``g`` scattered onto each window's argmax."""
    b, c, length = data.shape
    idx = _windows(length, kernel, stride)
    arg = data[:, :, idx].argmax(axis=-1)
    pos = idx[np.arange(idx.shape[0])[None, None, :], arg]
    out = np.zeros_like(data)
    np.add.at(out, (np.arange(b)[:, None, None], np.arange(c)[None, :, None], pos), g)
    return out


def sort_pool(x: Tensor, batch: np.ndarray, num_graphs: int, k: int) -> Tensor:
    """Sort-pool node embeddings into ``(num_graphs, k, F)``.

    Parameters
    ----------
    x: ``(N, F)`` node embeddings for the whole batch.
    batch: ``(N,)`` graph id per node.
    num_graphs: number of graphs ``B``.
    k: retained nodes per graph.
    """
    x = as_tensor(x)
    if k <= 0:
        raise ValueError("k must be positive")
    batch = np.asarray(batch)
    n, f = x.shape
    if batch.shape != (n,):
        raise ValueError("batch must have one entry per node")

    key = x.data[:, -1]
    # Rows grouped by graph, descending key inside each graph. lexsort
    # sorts by last key first, so order: primary batch, secondary -key.
    order = np.lexsort((-key, batch))
    plan = SegmentPlan(batch, num_graphs)
    counts = plan.counts
    starts = plan.indptr[:-1]

    # Selection matrix (B, k): row indices into `order`, -1 where padded.
    offsets = np.arange(k)[None, :]
    sel = starts[:, None] + offsets  # (B, k) positions in `order`
    valid = offsets < counts[:, None]
    sel_rows = np.where(valid, order[np.minimum(sel, n - 1)], 0)

    # The library's gather (the reference one under reference_ops()).
    pooled = indexing.gather(x, sel_rows.ravel())  # (B*k, F)
    mask = valid.astype(x.data.dtype).reshape(num_graphs * k, 1)
    pooled = pooled * Tensor(mask)
    return pooled.reshape(num_graphs, k, f)


def sort_pool_readout(proj, x: Tensor, batch: np.ndarray, num_graphs: int, k: int) -> Tensor:
    """The readout :class:`repro.models.sort_pool.PooledProjection` fuses:
    :func:`sort_pool`'s block convolved by :func:`conv1d` through a
    ``Conv1d(1, C, kernel=stride=F)`` sharing ``proj``'s parameters."""
    f, c = proj.weight.shape
    conv = Conv1d(1, c, kernel_size=f, stride=f)
    conv.weight, conv.bias = proj.weight, proj.bias
    pooled = sort_pool(x, batch, num_graphs, k)
    return conv1d(conv, pooled.reshape(num_graphs, 1, k * f))


#: library module -> {name: reference op}
_REFERENCE_OPS = {
    indexing: {
        "gather": gather,
        "segment_sum": segment_sum,
        "segment_mean": segment_mean,
        "segment_softmax": segment_softmax,
    },
    attention: {"gat_edge_pass": gat_edge_pass},
}


@contextmanager
def reference_ops() -> Iterator[None]:
    """Run every ``repro`` segment op and GAT edge pass on its reference.

    Modules bind the ops at import (``from repro.nn.indexing import
    gather``), so each binding of a library op is replaced, then restored.
    """
    swaps = [
        (name, getattr(library, name), reference)
        for library, ops in _REFERENCE_OPS.items()
        for name, reference in ops.items()
    ]
    patched = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, op, reference in swaps:
            if getattr(module, name, None) is op:
                patched.append((module, name, op))
                setattr(module, name, reference)
    try:
        yield
    finally:
        for module, name, op in patched:
            setattr(module, name, op)


@dataclass
class EnclosingSubgraph:
    """An extracted enclosing subgraph around one target link.

    ``graph`` is the induced subgraph (target link removed), nodes
    relabeled ``0..n-1`` with the two target nodes first; ``node_map``
    the original id of each node; ``src``/``dst`` the target ids (always
    0 and 1); ``dist_a``/``dist_b`` every node's hop distance to each
    target within the subgraph (-1 = unreachable).
    """

    graph: Graph
    node_map: np.ndarray
    src: int
    dst: int
    dist_a: np.ndarray
    dist_b: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


def extract_enclosing_subgraph(
    graph: Graph,
    u: int,
    v: int,
    *,
    k: int = 2,
    mode: str = "union",
    max_nodes: Optional[int] = None,
    rng=None,
) -> EnclosingSubgraph:
    """Extract the k-hop enclosing subgraph of the pair ``(u, v)`` on its own.

    Same contract as one link of
    :func:`repro.graph.bulk.extract_enclosing_subgraphs`: targets first,
    the rest ordered by (closeness, id), a ``max_nodes`` cap that keeps
    whole closer shells and draws the cut shell from ``rng``, every arc
    between the targets removed.
    """
    if u == v:
        raise ValueError("target endpoints must be distinct")
    if mode not in ("union", "intersection"):
        raise ValueError("mode must be 'union' or 'intersection'")
    if k < 1:
        raise ValueError("k must be >= 1")

    dist_u = bfs_within(graph, u, k)
    dist_v = bfs_within(graph, v, k)
    in_u = dist_u >= 0
    in_v = dist_v >= 0
    keep = in_u | in_v if mode == "union" else in_u & in_v
    keep[u] = True
    keep[v] = True
    nodes = np.nonzero(keep)[0]

    rest = nodes[(nodes != u) & (nodes != v)]
    du = np.where(dist_u[rest] >= 0, dist_u[rest], k + 1)
    dv = np.where(dist_v[rest] >= 0, dist_v[rest], k + 1)
    closeness = du + dv
    order = np.lexsort((rest, closeness))
    rest = rest[order]

    if max_nodes is not None and 2 + len(rest) > max_nodes:
        budget = max(max_nodes - 2, 0)
        if budget > 0:
            cls_sorted = closeness[order]
            cutoff = cls_sorted[budget - 1]
            firm = rest[cls_sorted < cutoff]
            tied = rest[cls_sorted == cutoff]
            picked = ensure_rng(rng).choice(tied, size=budget - len(firm), replace=False)
            rest = np.concatenate([firm, np.sort(picked)])
        else:
            rest = rest[:0]

    ordered = np.concatenate([[u, v], rest]).astype(np.int64)
    sub, node_map = graph.induced_subgraph(ordered)
    src_arr, dst_arr = sub.edge_index
    target_mask = ((src_arr == 0) & (dst_arr == 1)) | ((src_arr == 1) & (dst_arr == 0))
    if target_mask.any():
        sub = sub.without_edges(target_mask)
    return EnclosingSubgraph(
        graph=sub,
        node_map=node_map,
        src=0,
        dst=1,
        dist_a=bfs_distances(sub, 0),
        dist_b=bfs_distances(sub, 1),
    )


class PackedSample(NamedTuple):
    """One link's stored arrays, as the store's collation reads them."""

    features: np.ndarray
    edge_index: np.ndarray
    edge_attr: Optional[np.ndarray]


def packed_link(batch, pos: int) -> PackedSample:
    """The arrays of the link at position ``pos`` of a
    :class:`~repro.data.store.PackedBatch` (views into it)."""
    ns, ne = batch.node_offsets[pos], batch.node_offsets[pos + 1]
    es, ee = batch.edge_offsets[pos], batch.edge_offsets[pos + 1]
    return PackedSample(
        features=batch.features[ns:ne],
        edge_index=batch.edge_index[:, es:ee],
        edge_attr=None if batch.edge_attr is None else batch.edge_attr[es:ee],
    )


def build_packed_sample(task, seed, index: int) -> PackedSample:
    """Link ``index`` of ``task`` extracted on its own.

    Uses the same per-link rng stream as
    :func:`repro.data.extraction.build_packed_samples`, whose rows for
    the link must be bit-identical.
    """
    u, v = task.pairs[index]
    sub = extract_enclosing_subgraph(
        task.graph,
        int(u),
        int(v),
        k=task.num_hops,
        mode=task.subgraph_mode,
        max_nodes=task.max_subgraph_nodes,
        rng=_link_rng(task, seed, index),
    )
    return PackedSample(
        features=build_node_features(sub, task.feature_config),
        edge_index=sub.graph.edge_index,
        edge_attr=sub.graph.edge_attr,
    )


def _distances_without(graph: Graph, source: int, removed: int) -> np.ndarray:
    """BFS distances from ``source`` over a copy of ``graph`` without the
    arcs touching node ``removed`` (whose distance is therefore -1)."""
    if removed == source:
        raise ValueError("cannot remove the BFS source")
    touching = (graph.edge_index == removed).any(axis=0)
    return bfs_distances(graph.without_edges(touching), source)


def drnl_labels(sub: EnclosingSubgraph) -> np.ndarray:
    """DRNL label of every node in an enclosing subgraph.

    Target nodes get label 1; nodes unreachable from *either* target get
    the null label 0; all other nodes get ``D(x, y)``.
    """
    g = sub.graph
    dist_a = _distances_without(g, sub.src, sub.dst)
    dist_b = _distances_without(g, sub.dst, sub.src)
    return drnl_labels_from_distances(dist_a, dist_b, sub.src, sub.dst)


def build_node_features(sub: EnclosingSubgraph, config: FeatureConfig) -> np.ndarray:
    """Assemble the ``(n, width)`` node attribute matrix for one subgraph."""
    g = sub.graph
    return assemble_node_features(
        config,
        node_type=g.node_type,
        drnl=drnl_labels(sub) if config.use_drnl else None,
        node_features=g.node_features,
        node_map=sub.node_map,
    )


def collate(
    graphs: Sequence[Graph],
    node_feature_matrices: Sequence[np.ndarray],
    *,
    edge_attr_dim: int = 0,
) -> GraphBatch:
    """Fuse ``graphs`` with their ``(n_i, F)`` feature matrices into a batch.

    Each graph's own ``node_features`` are ignored; graphs lacking
    ``edge_attr`` contribute zero rows of width ``edge_attr_dim``.
    """
    if len(graphs) == 0:
        raise ValueError("cannot collate an empty list of graphs")
    if len(graphs) != len(node_feature_matrices):
        raise ValueError("need exactly one feature matrix per graph")
    feat_dims = {m.shape[1] for m in node_feature_matrices}
    if len(feat_dims) != 1:
        raise ValueError(f"inconsistent node feature widths: {sorted(feat_dims)}")
    float_dtype = get_compute_dtype()
    edge_index, node_features, edge_attr = [], [], []
    offset = 0
    for gi, g in enumerate(graphs):
        if node_feature_matrices[gi].shape[0] != g.num_nodes:
            raise ValueError(f"feature matrix {gi} rows != graph {gi} nodes")
        edge_index.append(g.edge_index + offset)
        node_features.append(node_feature_matrices[gi].astype(float_dtype))
        if edge_attr_dim and g.edge_attr is not None:
            if g.edge_attr.shape[1] != edge_attr_dim:
                raise ValueError(
                    f"graph {gi} edge_attr width {g.edge_attr.shape[1]} != {edge_attr_dim}"
                )
            edge_attr.append(g.edge_attr.astype(float_dtype))
        else:
            edge_attr.append(np.zeros((g.num_edges, edge_attr_dim), dtype=float_dtype))
        offset += g.num_nodes
    counts = [g.num_nodes for g in graphs]
    return GraphBatch(
        edge_index=np.concatenate(edge_index, axis=1).astype(np.int64),
        node_features=np.concatenate(node_features),
        edge_attr=np.concatenate(edge_attr),
        batch=np.repeat(np.arange(len(graphs), dtype=np.int64), counts),
        num_graphs=len(graphs),
    )
