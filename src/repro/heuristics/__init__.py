"""Classical link heuristics and the heuristic-feature baseline classifier."""

from repro.heuristics.classifier import HeuristicLinkClassifier, heuristic_features
from repro.heuristics.global_ import (
    GLOBAL_HEURISTICS,
    katz_index,
    rooted_pagerank,
    simrank,
)
from repro.heuristics.local import (
    LOCAL_HEURISTICS,
    graph_without_pairs,
    adamic_adar,
    common_neighbors,
    jaccard_coefficient,
    preferential_attachment,
    resource_allocation,
)

__all__ = [
    "common_neighbors",
    "jaccard_coefficient",
    "adamic_adar",
    "resource_allocation",
    "preferential_attachment",
    "LOCAL_HEURISTICS",
    "graph_without_pairs",
    "katz_index",
    "rooted_pagerank",
    "simrank",
    "GLOBAL_HEURISTICS",
    "heuristic_features",
    "HeuristicLinkClassifier",
]
