"""Graph Isomorphism Network convolution (Xu et al., ICLR'19).

The most expressive sum-aggregation message-passing layer in the 1-WL
class: ``x'_i = MLP((1 + ε) x_i + Σ_{j∈N(i)} x_j)``. Edge-attribute
blind like GCN/SAGE — included to round out the edge-blind side of the
extension spectrum (GIN's extra expressiveness over GCN still cannot
recover relation information it never sees).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.dense import Linear
from repro.nn.indexing import gather, segment_sum
from repro.nn.kernels import PlanCache
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor
from repro.utils.rng import RngLike, as_generator

__all__ = ["GINConv"]


class GINConv(Module):
    """GIN layer with a 2-layer MLP transform and learnable ε."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden_dim: Optional[int] = None,
        train_eps: bool = True,
        rng: RngLike = None,
    ):
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("feature dimensions must be positive")
        hidden_dim = hidden_dim or out_dim
        gen = as_generator(rng)
        self.lin1 = Linear(in_dim, hidden_dim, rng=gen)
        self.lin2 = Linear(hidden_dim, out_dim, rng=gen)
        if train_eps:
            self.eps: Optional[Parameter] = Parameter(np.zeros(1))
        else:
            self.register_parameter("eps", None)
            self.eps = None
        self.in_dim = in_dim
        self.out_dim = out_dim

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
        src, dst = edge_index
        if plans is None:
            plans = PlanCache(edge_index, n)
        src_plan = plans.src()
        dst_plan = plans.dst()
        agg = segment_sum(gather(x, src, plan=src_plan), dst, n, plan=dst_plan)
        if self.eps is not None:
            h = x * (self.eps + 1.0) + agg
        else:
            h = x + agg
        return self.lin2(F.relu(self.lin1(h)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GINConv({self.in_dim}, {self.out_dim})"
