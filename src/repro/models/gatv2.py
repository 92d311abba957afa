"""GATv2 convolution (Brody, Alon & Yahav, ICLR'22) with edge attributes.

A natural extension beyond the paper: GATv2 fixes GAT's *static
attention* limitation by applying the attention vector after the
nonlinearity,

.. math::
    e_{ij}^h = a_h^\\top \\,\\mathrm{LeakyReLU}\\big(W_s^h x_j + W_d^h x_i
               + W_e^h e_{ij}\\big),

so the ranking of neighbors can depend on the destination node (dynamic
attention). Like :class:`~repro.models.layers.GATConv` it supports edge
attributes in both the logits and (optionally) the message contents, and
drops into the shared DGCNN backbone via :class:`GATv2DGCNN`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.dgcnn import DGCNNBackbone
from repro.nn import functional as F
from repro.nn import init
from repro.nn.indexing import gather, segment_softmax, segment_sum
from repro.nn.kernels import PlanCache
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor
from repro.utils.rng import RngLike, as_generator

__all__ = ["GATv2Conv", "GATv2DGCNN"]


class GATv2Conv(Module):
    """Dynamic-attention graph convolution with optional edge attributes."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        heads: int = 1,
        edge_dim: int = 0,
        edge_in_message: bool = True,
        negative_slope: float = 0.2,
        bias: bool = True,
        add_loops: bool = True,
        rng: RngLike = None,
    ):
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("feature dimensions must be positive")
        if heads <= 0 or out_dim % heads != 0:
            raise ValueError("out_dim must be a positive multiple of heads")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.heads = heads
        self.channels = out_dim // heads
        self.edge_dim = edge_dim
        self.edge_in_message = edge_in_message
        self.negative_slope = negative_slope
        self.add_loops = add_loops

        gen = as_generator(rng)
        self.weight_src = Parameter(init.xavier_uniform((in_dim, out_dim), rng=gen))
        self.weight_dst = Parameter(init.xavier_uniform((in_dim, out_dim), rng=gen))
        self.att = Parameter(init.xavier_uniform((1, heads, self.channels), rng=gen))
        if edge_dim > 0:
            self.edge_weight: Optional[Parameter] = Parameter(
                init.xavier_uniform((edge_dim, out_dim), rng=gen)
            )
        else:
            self.register_parameter("edge_weight", None)
            self.edge_weight = None
        if bias:
            self.bias: Optional[Parameter] = Parameter(init.zeros((out_dim,)))
        else:
            self.register_parameter("bias", None)
            self.bias = None

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
        if self.edge_dim > 0 and edge_attr is None:
            edge_attr = np.zeros((edge_index.shape[1], self.edge_dim))
        if self.edge_dim > 0 and edge_attr.shape[1] != self.edge_dim:
            raise ValueError(
                f"edge_attr width {edge_attr.shape[1]} != edge_dim {self.edge_dim}"
            )
        if plans is None:
            plans = PlanCache(edge_index, n)
        if self.add_loops:
            edge_index = plans.loop_edge_index()
            edge_attr = plans.loop_edge_attr(edge_attr)
        src_plan = plans.src(loops=self.add_loops)
        dst_plan = plans.dst(loops=self.add_loops)
        src, dst = edge_index
        e = edge_index.shape[1]

        h_src = (x @ self.weight_src).reshape(n, self.heads, self.channels)
        h_dst = (x @ self.weight_dst).reshape(n, self.heads, self.channels)
        pre = gather(h_src, src, plan=src_plan) + gather(h_dst, dst, plan=dst_plan)  # (E, H, C)
        he = None
        if self.edge_dim > 0:
            he = (Tensor(edge_attr) @ self.edge_weight).reshape(e, self.heads, self.channels)
            pre = pre + he
        # v2: nonlinearity BEFORE the attention dot product.
        logits = (F.leaky_relu(pre, self.negative_slope) * self.att).sum(axis=2)
        alpha = segment_softmax(logits, dst, n, plan=dst_plan)  # (E, H)

        content = gather(h_src, src, plan=src_plan)
        if he is not None and self.edge_in_message:
            content = content + he
        out = segment_sum(content * alpha.reshape(e, self.heads, 1), dst, n, plan=dst_plan)
        out = out.reshape(n, self.out_dim)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GATv2Conv({self.in_dim}, {self.out_dim}, heads={self.heads}, "
            f"edge_dim={self.edge_dim})"
        )


class GATv2DGCNN(DGCNNBackbone):
    """AM-DGCNN variant with GATv2 message passing (dynamic attention)."""

    def __init__(
        self,
        in_dim: int,
        num_classes: int,
        *,
        edge_dim: int = 0,
        heads: int = 2,
        edge_in_message: bool = True,
        hidden_dim: int = 32,
        num_conv_layers: int = 3,
        sort_k: int = 30,
        dropout: float = 0.5,
        center_pool: bool = True,
        rng: RngLike = None,
    ):
        self.edge_dim = edge_dim
        self.heads = heads

        def factory(i: int, o: int, gen: np.random.Generator) -> Module:
            h = heads if o % heads == 0 and o >= heads else 1
            return GATv2Conv(
                i, o, heads=h, edge_dim=edge_dim,
                edge_in_message=edge_in_message, rng=gen,
            )

        super().__init__(
            in_dim,
            num_classes,
            factory,
            hidden_dim=hidden_dim,
            num_conv_layers=num_conv_layers,
            sort_k=sort_k,
            dropout=dropout,
            center_pool=center_pool,
            rng=rng,
        )
