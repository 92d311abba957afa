"""Graph convolution layers: GCNConv and GATConv (with edge attributes).

``GCNConv`` follows Kipf & Welling (ICLR'17): symmetric-normalized
propagation with self-loops. It is *edge-attribute blind* — the
shortcoming of vanilla DGCNN the paper targets.

``GATConv`` follows Veličković et al. (ICLR'18) with PyTorch Geometric's
``edge_dim`` extension: edge attributes are linearly projected and enter
the additive attention logits, so attention coefficients — and therefore
the aggregation — depend on the relation carried by each edge. This is
the mechanism that lets AM-DGCNN exploit link information (paper §II-A,
§III-C).

Both layers operate on a batched edge list (``repro.graph.GraphBatch``),
so the entire mini-batch is processed in a handful of vectorized ops:
``GCNConv`` through ``gather`` / ``segment_sum``, ``GATConv`` through the
fused :func:`~repro.nn.attention.gat_edge_pass` (logits, segment softmax
and weighted segment sum as one tape node).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.dtype import get_compute_dtype
from repro.nn.attention import gat_edge_pass
from repro.nn.indexing import gather, segment_sum
from repro.nn.kernels import PlanCache
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["GCNConv", "GATConv"]


class GCNConv(Module):
    """Graph convolution ``X' = D̂^{-1/2} Â D̂^{-1/2} X W + b``.

    ``Â = A + I`` (self-loops added internally). Any ``edge_attr`` passed
    to ``forward`` is deliberately ignored — this blindness to link
    information is exactly what the paper's comparison isolates.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: RngLike = None):
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("feature dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        gen = ensure_rng(rng)
        self.weight = Parameter(init.xavier_uniform((in_dim, out_dim), rng=gen))
        self.bias = Parameter(init.zeros((out_dim,)))

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_attr: Optional[np.ndarray] = None,  # accepted but unused
        *,
        plans: Optional[PlanCache] = None,
    ) -> Tensor:
        x = as_tensor(x)
        n = x.shape[0]
        if plans is None:
            plans = PlanCache(edge_index, n)
        # Loop-augmented topology, degrees and normalization are pure
        # functions of the batch — reuse them instead of rebuilding.
        src, dst = plans.loop_edge_index()
        coeff = plans.gcn_coeff()
        src_plan = plans.src(loops=True)
        dst_plan = plans.dst(loops=True)

        h = x @ self.weight  # (N, out)
        messages = gather(h, src, plan=src_plan) * Tensor(coeff[:, None])
        out = segment_sum(messages, dst, n, plan=dst_plan)
        out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GCNConv({self.in_dim}, {self.out_dim})"


class GATConv(Module):
    """Multi-head graph attention with optional edge attributes.

    For arc ``j→i`` with heads ``h``:

    .. math::
        e_{ij}^h = \\mathrm{LeakyReLU}\\big(a_s^h \\cdot W^h x_j
                   + a_d^h \\cdot W^h x_i + a_e^h \\cdot W_e^h e_{ij}\\big)

    ``α = segment_softmax(e)`` over the incoming arcs of each destination,
    and ``x'_i = \\Vert_h Σ_j α_{ij}^h m_{ij}^h`` (concatenated heads), plus
    bias. When ``edge_dim == 0`` the edge term vanishes and the layer is a
    standard GAT.

    With ``edge_in_message=True`` (default) the per-arc message is
    ``m_{ij} = W x_j + W_e e_{ij}`` rather than ``W x_j`` alone. This is
    load-bearing: attention-only edge usage is *provably blind* to edge
    attributes whenever neighboring node features are identical — the
    softmax normalizes to 1, so reweighting identical messages changes
    nothing. On a dataset like WordNet-18, where nodes carry no features
    beyond DRNL labels, an attention-only GAT would collapse to the GCN
    baseline; projecting edge attributes into the message restores the
    paper's "incorporating link information into node transformations"
    (§II-A). Set ``edge_in_message=False`` to recover PyG's attention-only
    ``GATConv(edge_dim=...)`` semantics (an ablation in the benchmarks).

    Parameters
    ----------
    in_dim / out_dim: per-layer widths; ``out_dim`` must divide by ``heads``
        (each head produces ``out_dim // heads`` channels).
    heads: number of attention heads.
    edge_dim: width of edge-attribute vectors (0 disables the edge path).
    edge_in_message: add the projected edge attribute to message contents.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        heads: int = 1,
        edge_dim: int = 0,
        edge_in_message: bool = True,
        rng: RngLike = None,
    ):
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("feature dimensions must be positive")
        if heads <= 0 or out_dim % heads != 0:
            raise ValueError("out_dim must be a positive multiple of heads")
        if edge_dim < 0:
            raise ValueError("edge_dim must be non-negative")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.heads = heads
        self.channels = out_dim // heads
        self.edge_dim = edge_dim
        self.edge_in_message = edge_in_message

        gen = ensure_rng(rng)
        self.weight = Parameter(init.xavier_uniform((in_dim, out_dim), rng=gen))
        self.att_src = Parameter(init.xavier_uniform((1, heads, self.channels), rng=gen))
        self.att_dst = Parameter(init.xavier_uniform((1, heads, self.channels), rng=gen))
        if edge_dim > 0:
            self.edge_weight: Optional[Parameter] = Parameter(
                init.xavier_uniform((edge_dim, out_dim), rng=gen)
            )
            self.att_edge: Optional[Parameter] = Parameter(
                init.xavier_uniform((1, heads, self.channels), rng=gen)
            )
        else:
            self.register_parameter("edge_weight", None)
            self.register_parameter("att_edge", None)
            self.edge_weight = None
            self.att_edge = None
        self.bias = Parameter(init.zeros((out_dim,)))

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_attr: Optional[np.ndarray] = None,
        *,
        plans: Optional[PlanCache] = None,
    ) -> Tensor:
        x = as_tensor(x)
        n = x.shape[0]
        if self.edge_dim > 0:
            if edge_attr is None:
                edge_attr = np.zeros(
                    (edge_index.shape[1], self.edge_dim), dtype=get_compute_dtype()
                )
            elif edge_attr.shape[1] != self.edge_dim:
                raise ValueError(
                    f"edge_attr width {edge_attr.shape[1]} != edge_dim {self.edge_dim}"
                )
        if plans is None:
            plans = PlanCache(edge_index, n)
        edge_index = plans.loop_edge_index()
        edge_attr = plans.loop_edge_attr(edge_attr)
        he = None
        if self.edge_dim > 0:
            he = Tensor(edge_attr) @ self.edge_weight  # (E, out)
        out = gat_edge_pass(
            x @ self.weight,
            self.att_src,
            self.att_dst,
            edge_index,
            src_plan=plans.src(loops=True),
            dst_plan=plans.dst(loops=True),
            he=he,
            att_edge=self.att_edge,
            edge_in_message=self.edge_in_message,
        )
        out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GATConv({self.in_dim}, {self.out_dim}, heads={self.heads}, "
            f"edge_dim={self.edge_dim})"
        )
