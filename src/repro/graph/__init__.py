"""Graph substrate: containers, traversal, enclosing subgraphs, batching."""

from repro.graph.batch import GraphBatch, collate
from repro.graph.bulk import BulkSubgraphs, extract_enclosing_subgraphs
from repro.graph.generators import (
    barabasi_albert_edges,
    dedupe_edges,
    erdos_renyi_edges,
    preferential_attachment_edges,
    stochastic_block_edges,
)
from repro.graph.stats import (
    connected_components,
    degree_assortativity,
    degree_summary,
    global_clustering_coefficient,
    graph_report,
    largest_component_fraction,
    num_connected_components,
)
from repro.graph.structure import Graph
from repro.graph.subgraph import EnclosingSubgraph, extract_enclosing_subgraph
from repro.graph.traversal import (
    bfs_distances,
    k_hop_union,
    multi_source_bfs,
)

__all__ = [
    "Graph",
    "GraphBatch",
    "collate",
    "bfs_distances",
    "k_hop_union",
    "multi_source_bfs",
    "EnclosingSubgraph",
    "extract_enclosing_subgraph",
    "BulkSubgraphs",
    "extract_enclosing_subgraphs",
    "erdos_renyi_edges",
    "barabasi_albert_edges",
    "preferential_attachment_edges",
    "stochastic_block_edges",
    "dedupe_edges",
    "connected_components",
    "num_connected_components",
    "largest_component_fraction",
    "global_clustering_coefficient",
    "degree_assortativity",
    "degree_summary",
    "graph_report",
]
