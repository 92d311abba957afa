"""node2vec walks and SGNS training."""

import numpy as np
import pytest

from repro.embeddings.node2vec import generate_walks
from repro.embeddings.skipgram import (
    WINDOW,
    node2vec_embeddings,
    train_skipgram,
    walks_to_pairs,
)
from repro.graph.structure import Graph
from tests.oracles import has_edge


class TestWalks:
    def test_walks_follow_edges(self, tiny_graph):
        walks = generate_walks(tiny_graph, num_walks=2, walk_length=6, rng=0)
        for walk in walks:
            for a, b in zip(walk[:-1], walk[1:]):
                assert has_edge(tiny_graph, int(a), int(b))

    def test_walk_count_and_starts(self, tiny_graph):
        walks = generate_walks(tiny_graph, num_walks=3, walk_length=4, rng=0)
        assert len(walks) == 3 * tiny_graph.num_nodes
        starts = sorted(int(w[0]) for w in walks)
        assert starts == sorted(list(range(6)) * 3)

    def test_dead_end_terminates(self):
        # Directed-style dead end: node 1 has no out arcs.
        g = Graph(2, np.array([[0], [1]]))
        walks = generate_walks(g, num_walks=1, walk_length=5, rng=0)
        by_start = {int(w[0]): w for w in walks}
        assert len(by_start[1]) == 1  # stuck immediately

    def test_invalid_params(self, tiny_graph):
        with pytest.raises(ValueError):
            generate_walks(tiny_graph, num_walks=0)
        with pytest.raises(ValueError):
            generate_walks(tiny_graph, walk_length=1)


class TestPairs:
    def test_window_pairs(self):
        # Positions up to WINDOW apart pair up, in both directions.
        pairs = walks_to_pairs([np.arange(WINDOW + 2)])
        as_set = {tuple(p) for p in pairs.tolist()}
        assert (0, WINDOW) in as_set and (WINDOW, 0) in as_set
        assert (0, WINDOW + 1) not in as_set and (WINDOW + 1, 0) not in as_set
        assert len(pairs) == len(as_set)

    def test_window_two(self):
        pairs = walks_to_pairs([np.array([0, 1, 2])])
        as_set = {tuple(p) for p in pairs.tolist()}
        assert as_set == {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}

    def test_empty_and_invalid(self):
        assert walks_to_pairs([]).shape == (0, 2)
        assert walks_to_pairs([np.array([4])]).shape == (0, 2)  # one-node walk


class TestSkipgram:
    def test_embedding_shape(self):
        pairs = np.array([[0, 1], [1, 0], [2, 3], [3, 2]])
        z = train_skipgram(pairs, num_nodes=4, dim=8, epochs=2, rng=0)
        assert z.shape == (4, 8)
        assert np.isfinite(z).all()

    def test_empty_pairs_give_zeros(self):
        z = train_skipgram(np.empty((0, 2), dtype=int), 3, dim=4)
        np.testing.assert_allclose(z, 0.0)

    def test_cooccurring_nodes_more_similar(self):
        # Two cliques {0,1,2} and {3,4,5} co-occur only internally.
        gen = np.random.default_rng(0)
        pairs = []
        for _ in range(400):
            a, b = gen.choice(3, 2, replace=False)
            pairs.append((a, b))
            pairs.append((a + 3, b + 3))
        z = train_skipgram(np.array(pairs), 6, dim=8, epochs=5, rng=0)
        zn = z / np.linalg.norm(z, axis=1, keepdims=True)
        within = zn[0] @ zn[1]
        across = zn[0] @ zn[4]
        assert within > across

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            train_skipgram(np.array([[0, 1]]), 2, dim=0)


class TestEndToEnd:
    def test_node2vec_embeddings(self, tiny_graph):
        z = node2vec_embeddings(tiny_graph, dim=6, num_walks=3, walk_length=8, rng=0)
        assert z.shape == (6, 6)
        assert np.isfinite(z).all()
        assert np.abs(z).sum() > 0
