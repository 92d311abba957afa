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
* :func:`reference_ops` — swaps the library's segment ops and
  :func:`gat_edge_pass`
  into every ``repro`` module that imported the library versions, so a
  whole layer, model or training run can be replayed on the reference
  path.
* :func:`build_packed_sample` — per-link SEAL extraction through
  :func:`repro.graph.subgraph.extract_enclosing_subgraph`, labelled by
  :func:`drnl_labels` (one BFS pair per subgraph) and featurized by
  :func:`build_node_features`.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.data.extraction import _link_rng
from repro.data.store import PackedSubgraph
from repro.graph.structure import Graph
from repro.graph.subgraph import EnclosingSubgraph, extract_enclosing_subgraph
from repro.graph.traversal import bfs_distances
from repro.nn import attention, indexing
from repro.nn.tensor import Tensor, as_tensor
from repro.seal.features import FeatureConfig, assemble_node_features
from repro.seal.labeling import drnl_labels_from_distances


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
    alpha = segment_softmax(logits.leaky_relu(negative_slope), dst, n)
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


def build_packed_sample(task, seed, index: int) -> PackedSubgraph:
    """Link ``index`` of ``task`` extracted on its own, as a packed sample.

    Uses the same per-link rng stream as
    :func:`repro.data.extraction.build_packed_samples`, which must return
    bit-identical samples.
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
    g = sub.graph
    return PackedSubgraph(
        index=int(index),
        num_nodes=g.num_nodes,
        num_edges=g.num_edges,
        edge_index=g.edge_index,
        features=build_node_features(sub, task.feature_config),
        node_type=g.node_type,
        edge_type=g.edge_type,
        edge_attr=g.edge_attr,
        node_features=g.node_features,
    )


def _distances_without(graph: Graph, source: int, removed: int) -> np.ndarray:
    """BFS distances from ``source`` with node ``removed`` cut out.

    ``blocked_node`` skips the node during traversal directly — this used
    to build a pruned ``Graph`` copy (edge mask + fresh CSR) per call,
    twice per link, just to drop one node's arcs.
    """
    return bfs_distances(graph, source, blocked_node=removed)


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
