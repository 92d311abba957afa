"""GNN layers and the two competing link classifiers.

``VanillaDGCNN`` — GCN message passing, blind to edge attributes.
``AMDGCNN``     — the paper's model: GAT message passing over edge attrs.
"""

from repro.models.am_dgcnn import AMDGCNN
from repro.models.dgcnn import DGCNNBackbone, VanillaDGCNN
from repro.models.layers import GATConv, GCNConv
from repro.models.rgcn import RGCNConv, RGCNDGCNN
from repro.models.sage import SAGEConv
from repro.models.sort_pool import SortPooling
from repro.models.wlnm import WLNMClassifier, encode_subgraph, wl_order

__all__ = [
    "GCNConv",
    "GATConv",
    "SAGEConv",
    "RGCNConv",
    "SortPooling",
    "DGCNNBackbone",
    "VanillaDGCNN",
    "AMDGCNN",
    "RGCNDGCNN",
    "WLNMClassifier",
    "wl_order",
    "encode_subgraph",
]
