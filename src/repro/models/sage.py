"""GraphSAGE convolution (Hamilton et al., NeurIPS'17).

A third message-passing flavour for the GNN-agnostic SEAL framework:
``x'_i = W_self x_i + W_nbr · mean_{j∈N(i)} x_j``. Like GCN it ignores
edge attributes; it serves as an additional edge-blind baseline in the
extension benchmarks (the paper's framework is "GNN-agnostic", §II-B).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.indexing import gather, segment_mean
from repro.nn.kernels import PlanCache
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["SAGEConv"]


class SAGEConv(Module):
    """Mean-aggregator GraphSAGE layer (edge-attribute blind)."""

    def __init__(self, in_dim: int, out_dim: int, rng: RngLike = None):
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("feature dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        gen = ensure_rng(rng)
        self.weight_self = Parameter(init.xavier_uniform((in_dim, out_dim), rng=gen))
        self.weight_nbr = Parameter(init.xavier_uniform((in_dim, out_dim), rng=gen))
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
        src, dst = edge_index
        if plans is None:
            plans = PlanCache(edge_index, n)
        src_plan = plans.src()
        dst_plan = plans.dst()
        nbr_mean = segment_mean(gather(x, src, plan=src_plan), dst, n, plan=dst_plan)
        out = x @ self.weight_self + nbr_mean @ self.weight_nbr
        out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SAGEConv({self.in_dim}, {self.out_dim})"
