"""Shared fixtures: small deterministic graphs and tasks."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.__main__ import main
from repro.graph.structure import Graph


@pytest.fixture
def repro_main(monkeypatch):
    """``python -m repro ARGV...`` in process: ``main`` reads ``sys.argv``."""

    def run(argv):
        monkeypatch.setattr(sys, "argv", ["repro", *argv])
        return main()

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_graph() -> Graph:
    """A 6-node symmetric graph with 3 edge types and one-hot edge attrs.

    Undirected edges: 0-1, 1-2, 2-3, 3-4, 4-0, 1-3, 2-4, 0-2 (types cycle
    0,1,2). Node types alternate 0/1; node features are 2-d one-hots of
    the type.
    """
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [1, 3], [2, 4], [0, 2]])
    etype = np.arange(len(edges)) % 3
    node_type = np.array([0, 1, 0, 1, 0, 1])
    feats = np.eye(2)[node_type]
    return Graph.from_undirected(
        6,
        edges,
        node_type=node_type,
        node_features=feats,
        edge_type=etype,
        edge_attr=np.eye(3)[etype],
    )


@pytest.fixture
def path_graph() -> Graph:
    """A 5-node path 0-1-2-3-4 (symmetric arcs)."""
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])
    return Graph.from_undirected(5, edges)


@pytest.fixture
def star_graph() -> Graph:
    """Node 0 connected to nodes 1..5."""
    edges = np.array([[0, i] for i in range(1, 6)])
    return Graph.from_undirected(6, edges)
