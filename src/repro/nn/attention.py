"""The fused GAT edge pass: one tape node for attention message passing.

:class:`~repro.models.layers.GATConv` spends most of a training step in
the per-arc program between its projections and its bias: node logit
terms, gathered per arc, plus the edge-attribute term, LeakyReLU,
per-destination softmax, ``(h[src] + he) · α`` messages and their
per-destination sum. Spelled as tensor ops that program is ~13 tape
nodes, each allocating its own ``(E, H, C)`` gradient, materializing
the broadcasts of the ``sum`` VJPs and merging contributions through
the tape's gradient dict.

:func:`gat_edge_pass` runs it as one op: one forward and one backward,
shared by the VJPs of all its parents (the first VJP ``Tensor.backward``
calls computes every gradient, the others hand theirs out).

**Bit-identity.** The op executes the same NumPy calls, on the same
operands and in the same order, as the op chain it replaces — that chain
lives on as the test oracle ``tests/oracles.py::gat_edge_pass``:

* a broadcast ``g[..., None] * a`` multiplies exactly the values the
  ``sum`` VJP's materialized ``broadcast_to(...).copy()`` held, and the
  ``keepdims`` reductions see identically laid-out products;
* the node gradient accumulates as ``(gather-backward + src-logit
  term) + dst-logit term``, the order in which the tape merged those
  three contributions (float addition is commutative but not
  associative, so two-term merges are order-free and three-term ones
  are not);
* every segment reduction goes through the same
  :class:`~repro.nn.kernels.SegmentPlan` kernel.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.kernels import SegmentPlan
from repro.nn.tensor import Tensor

__all__ = ["gat_edge_pass"]

#: LeakyReLU slope of the attention logits (GAT and the paper: 0.2)
NEGATIVE_SLOPE = 0.2


def gat_edge_pass(
    h: Tensor,
    att_src: Tensor,
    att_dst: Tensor,
    edge_index: np.ndarray,
    *,
    src_plan: SegmentPlan,
    dst_plan: SegmentPlan,
    he: Optional[Tensor] = None,
    att_edge: Optional[Tensor] = None,
    edge_in_message: bool = True,
) -> Tensor:
    """Attention-weighted aggregation of ``h`` over ``edge_index``.

    For arc ``j→i`` and head ``k``:

    * ``e_ijk = LeakyReLU(a_s·h_jk + a_d·h_ik [+ a_e·he_ijk])``,
    * ``α = softmax(e)`` over the incoming arcs of each ``i``,
    * ``out_ik = Σ_j α_ijk (h_jk [+ he_ijk])``.

    Parameters
    ----------
    h: ``(N, H*C)`` projected node features.
    att_src, att_dst: ``(1, H, C)`` attention vectors; their shape sets
        the head split of ``h``.
    edge_index: ``(2, E)`` arcs (self-loops already appended if wanted).
    src_plan, dst_plan: :class:`SegmentPlan` over ``(edge_index[0], N)``
        and ``(edge_index[1], N)``.
    he: optional ``(E, H*C)`` projected edge attributes; they enter the
        logits through ``att_edge`` and, with ``edge_in_message``, the
        messages.

    The logits pass through a LeakyReLU of slope ``NEGATIVE_SLOPE``.

    Returns
    -------
    ``(N, H*C)`` tensor (heads concatenated).
    """
    src, dst = edge_index
    n = h.shape[0]
    e = src.shape[0]
    _, heads, channels = att_src.shape
    src_plan.check(src, n)
    dst_plan.check(dst, n)
    h3 = h.data.reshape(n, heads, channels)
    a_src, a_dst = att_src.data, att_dst.data

    logits = np.take((h3 * a_src).sum(axis=2), src, axis=0)
    logits += np.take((h3 * a_dst).sum(axis=2), dst, axis=0)
    he3 = a_edge = None
    if he is not None:
        he3 = he.data.reshape(e, heads, channels)
        a_edge = att_edge.data
        logits += (he3 * a_edge).sum(axis=2)
    positive = logits > 0
    alpha = dst_plan.segment_softmax(np.where(positive, logits, NEGATIVE_SLOPE * logits))

    content = np.take(h3, src, axis=0)  # (E, H, C)
    if he3 is not None and edge_in_message:
        content += he3
    out = dst_plan.segment_sum(content * alpha[..., None]).reshape(n, heads * channels)

    parents = (h, att_src, att_dst) + ((he, att_edge) if he is not None else ())

    def backward(g: np.ndarray) -> Dict[int, np.ndarray]:
        """Gradients of every parent that requires one, keyed by position."""
        g_msg = np.take(g.reshape(n, heads, channels), dst, axis=0)  # (E, H, C)
        g_content = g_msg * alpha[..., None]
        g_msg *= content
        g_alpha = g_msg.sum(axis=2)
        # segment_softmax VJP, then LeakyReLU's.
        g_logits = g_alpha - dst_plan.segment_sum(g_alpha * alpha)[dst]
        g_logits *= alpha
        g_logits = np.where(positive, g_logits, g_logits * NEGATIVE_SLOPE)
        g_node_src = src_plan.segment_sum(g_logits)[..., None]  # (N, H, 1)
        g_node_dst = dst_plan.segment_sum(g_logits)[..., None]
        grads: Dict[int, np.ndarray] = {}
        if h.requires_grad:
            dh = src_plan.segment_sum(g_content)
            dh += g_node_src * a_src
            dh += g_node_dst * a_dst
            grads[0] = dh.reshape(h.shape)
        if att_src.requires_grad:
            grads[1] = (g_node_src * h3).sum(axis=0, keepdims=True)
        if att_dst.requires_grad:
            grads[2] = (g_node_dst * h3).sum(axis=0, keepdims=True)
        if he3 is not None:
            g_logits = g_logits[..., None]
            if he.requires_grad:
                dhe = g_logits * a_edge
                if edge_in_message:
                    dhe += g_content
                grads[3] = dhe.reshape(he.shape)
            if att_edge.requires_grad:
                grads[4] = (g_logits * he3).sum(axis=0, keepdims=True)
        return grads

    # (upstream gradient, parent gradients not yet handed out): the first
    # VJP a backward pass calls fills it, the last one empties it.
    shared: list = [None, {}]

    def vjp_of(i: int):
        def vjp(g: np.ndarray) -> np.ndarray:
            if shared[0] is not g:
                shared[:] = [g, backward(g)]
            grad = shared[1].pop(i)
            if not shared[1]:
                shared[0] = None
            return grad

        return vjp

    return Tensor._from_op(
        out, parents, [vjp_of(i) for i in range(len(parents))], "gat_edge_pass"
    )
