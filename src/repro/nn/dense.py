"""Dense (fully connected) building blocks: Linear, Dropout, MLP.

These make up the classifier head of DGCNN/AM-DGCNN — the "dense layer"
stage of Fig. 2 in the paper.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["Linear", "Dropout", "MLP"]


class Linear(Module):
    """Affine layer ``y = x W + b`` with Glorot-uniform weights.

    Weight is stored ``(in_features, out_features)`` so the forward pass is
    a single row-major matmul (cache-friendly for batched inputs).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng: RngLike = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        gen = ensure_rng(rng)
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng=gen))
        if bias:
            self.bias: Optional[Parameter] = Parameter(init.zeros((out_features,)))
        else:
            self.register_parameter("bias", None)
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Dropout(Module):
    """Inverted dropout honoring the module's train/eval mode."""

    def __init__(self, p: float = 0.5, rng: RngLike = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = ensure_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dropout(p={self.p})"


class MLP(Module):
    """Multi-layer perceptron with ReLU activations and optional dropout.

    ``dims = [in, h1, ..., out]``; the final layer is linear (no activation)
    so the output can be used as logits.
    """

    def __init__(
        self,
        dims: Sequence[int],
        dropout: float = 0.0,
        rng: RngLike = None,
    ):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        gen = ensure_rng(rng)
        self.layers = ModuleList(
            [Linear(dims[i], dims[i + 1], rng=gen) for i in range(len(dims) - 1)]
        )
        self.dropout = Dropout(dropout, rng=gen) if dropout > 0 else None
        self.dims: List[int] = list(dims)

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i != last:
                x = F.relu(x)
                if self.dropout is not None:
                    x = self.dropout(x)
        return x
