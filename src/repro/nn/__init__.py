"""NumPy autograd + neural-network substrate (torch stand-in).

Public surface::

    from repro.nn import Tensor, Module, Parameter, Linear, Adam
    from repro.nn import functional as F
"""

from repro.nn import dtype
from repro.nn import functional
from repro.nn import init
from repro.nn import kernels
from repro.nn.attention import gat_edge_pass
from repro.nn.conv import Conv1d, MaxPool1d
from repro.nn.dense import MLP, Dropout, Linear
from repro.nn.dtype import (
    cast_module,
    compute_dtype,
    get_compute_dtype,
    resolve_dtype,
    set_compute_dtype,
)
from repro.nn.kernels import PlanCache, SegmentPlan
from repro.nn.indexing import (
    gather,
    scatter_add,
    segment_count,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn.losses import cross_entropy, nll_loss
from repro.nn.module import Module, ModuleList, Parameter, Sequential
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack, where

__all__ = [
    "dtype",
    "compute_dtype",
    "get_compute_dtype",
    "set_compute_dtype",
    "resolve_dtype",
    "cast_module",
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "init",
    "Module",
    "ModuleList",
    "Sequential",
    "Parameter",
    "Linear",
    "Dropout",
    "MLP",
    "Conv1d",
    "MaxPool1d",
    "kernels",
    "SegmentPlan",
    "PlanCache",
    "gather",
    "scatter_add",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "segment_count",
    "gat_edge_pass",
    "cross_entropy",
    "nll_loss",
    "Adam",
    "clip_grad_norm",
]
