"""Relational GCN convolution (Schlichtkrull et al., ESWC'18).

R-GCN is the classical *non-attention* way to consume edge types:
per-relation weight matrices with basis decomposition,

.. math::
    x'_i = W_0 x_i + \\sum_{e: j→i} \\frac{1}{c_i}
           \\Big(\\sum_b \\langle a_e, C_{·b} \\rangle \\, x_j V_b\\Big),

where ``a_e`` is the edge's attribute vector (a relation one-hot in the
KG datasets, so ``a_e C`` selects relation ``r``'s basis coefficients),
``V_b`` are shared basis matrices, and ``c_i`` is the in-degree. Soft
(non-one-hot) attribute vectors — e.g. PrimeKG's compressed 2-d signs —
are handled naturally as mixtures of relations.

``RGCNDGCNN`` plugs this layer into the shared DGCNN backbone, giving an
extension model between vanilla DGCNN (edge-blind) and AM-DGCNN
(attention + edges): relation-aware but attention-free. The extension
benchmark compares all three.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.dgcnn import DGCNNBackbone
from repro.nn import init
from repro.nn.dtype import get_compute_dtype
from repro.nn.indexing import gather, segment_sum
from repro.nn.kernels import PlanCache
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["RGCNConv", "RGCNDGCNN"]


class RGCNConv(Module):
    """Basis-decomposed relational graph convolution.

    Parameters
    ----------
    in_dim / out_dim: layer widths.
    num_relations: width of the edge-attribute vectors (relation space).
    num_bases: shared bases ``B`` (≤ num_relations); controls parameters.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_relations: int,
        num_bases: int = 4,
        bias: bool = True,
        rng: RngLike = None,
    ):
        super().__init__()
        if min(in_dim, out_dim, num_relations, num_bases) <= 0:
            raise ValueError("dimensions must be positive")
        if num_bases > num_relations:
            num_bases = num_relations
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_relations = num_relations
        self.num_bases = num_bases
        gen = ensure_rng(rng)
        self.weight_self = Parameter(init.xavier_uniform((in_dim, out_dim), rng=gen))
        self.bases = Parameter(
            init.xavier_uniform((num_bases, in_dim, out_dim), rng=gen)
        )
        self.comb = Parameter(init.xavier_uniform((num_relations, num_bases), rng=gen))
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
        src, dst = edge_index
        e = edge_index.shape[1]
        if plans is None:
            plans = PlanCache(edge_index, n)
        src_plan = plans.src()
        dst_plan = plans.dst()
        if edge_attr is None or edge_attr.shape[1] == 0:
            # No relation information: every edge uses the uniform mixture.
            edge_attr = np.full((e, self.num_relations), 1.0 / self.num_relations)
        if edge_attr.shape[1] != self.num_relations:
            raise ValueError(
                f"edge_attr width {edge_attr.shape[1]} != num_relations {self.num_relations}"
            )

        h_src = gather(x, src, plan=src_plan)  # (E, in)
        coeff = Tensor(edge_attr) @ self.comb  # (E, B)
        messages: Optional[Tensor] = None
        for b in range(self.num_bases):
            # (E, out) weighted by this basis' per-edge coefficient.
            hb = h_src @ self.bases[b]
            term = hb * coeff[:, b].reshape(e, 1)
            messages = term if messages is None else messages + term
        agg = segment_sum(messages, dst, n, plan=dst_plan)
        degree = np.maximum(dst_plan.counts.astype(get_compute_dtype()), 1.0)[:, None]
        out = x @ self.weight_self + agg * Tensor(1.0 / degree)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RGCNConv({self.in_dim}, {self.out_dim}, "
            f"relations={self.num_relations}, bases={self.num_bases})"
        )


class RGCNDGCNN(DGCNNBackbone):
    """DGCNN backbone with R-GCN message passing (relation-aware, no attention).

    The third column of the extension comparison: vanilla (edge-blind) <
    R-GCN (relation-aware convolution) ≤ AM-DGCNN (relation-aware
    attention) — ordering verified in ``benchmarks/test_extension_rgcn.py``.
    """

    def __init__(
        self,
        in_dim: int,
        num_classes: int,
        *,
        num_relations: int,
        num_bases: int = 4,
        hidden_dim: int = 32,
        num_conv_layers: int = 3,
        sort_k: int = 30,
        dropout: float = 0.5,
        center_pool: bool = True,
        rng: RngLike = None,
    ):
        if num_relations <= 0:
            raise ValueError("num_relations must be positive")
        self.num_relations = num_relations

        def factory(i: int, o: int, gen: np.random.Generator) -> Module:
            return RGCNConv(i, o, num_relations=num_relations, num_bases=num_bases, rng=gen)

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
