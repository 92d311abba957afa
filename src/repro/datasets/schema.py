"""Dataset schema descriptors — the paper's Table II, plus our scaled stats.

Each entry records what the paper reports for the real dataset and what
the synthetic stand-in generates, so the Table II regeneration can print
them side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["DatasetSchema", "PAPER_SCHEMAS"]


@dataclass(frozen=True)
class DatasetSchema:
    """Schema facts for one dataset (paper Table II row)."""

    name: str
    paper_node_types: int
    paper_edge_types: int
    paper_nodes: int
    paper_edges: int
    paper_train_links: int
    paper_test_links: int
    task: str  # human description of the link task
    has_node_features: bool
    has_edge_attrs: bool


PAPER_SCHEMAS: Dict[str, DatasetSchema] = {
    "primekg": DatasetSchema(
        name="PrimeKG",
        paper_node_types=10,
        paper_edge_types=30,
        paper_nodes=129_375,
        paper_edges=4_050_249,
        paper_train_links=6000,
        paper_test_links=2000,
        task="drug-disease links: indication / off-label use / contra-indication",
        has_node_features=True,
        has_edge_attrs=True,
    ),
    "biokg": DatasetSchema(
        name="OGBL-BioKG",
        paper_node_types=5,
        paper_edge_types=51,
        paper_nodes=100_000,
        paper_edges=4_000_000,
        paper_train_links=1300,
        paper_test_links=200,
        task="protein-protein links into 7 relation classes",
        has_node_features=False,
        has_edge_attrs=True,
    ),
    "wordnet": DatasetSchema(
        name="WordNet-18",
        paper_node_types=1,
        paper_edge_types=18,
        paper_nodes=40_943,
        paper_edges=150_000,
        paper_train_links=13_000,
        paper_test_links=4000,
        task="word-sense links into 18 lexical relation classes",
        has_node_features=False,
        has_edge_attrs=True,
    ),
    "cora": DatasetSchema(
        name="Cora (Planetoid)",
        paper_node_types=7,
        paper_edge_types=1,
        paper_nodes=2708,
        paper_edges=5429,
        paper_train_links=4343,  # 80% of 5429
        paper_test_links=1086,  # 20% of 5429
        task="citation link prediction (existence, binary)",
        has_node_features=True,
        has_edge_attrs=False,
    ),
}
