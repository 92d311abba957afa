"""Event generator: determinism, live-set discipline, windowing."""

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert_edges
from repro.graph.structure import Graph
from repro.stream import (
    ADD_EDGE,
    INVALIDATE_EDGE,
    EventBatch,
    events_from_links,
    generate_events,
)

pytestmark = pytest.mark.stream


@pytest.fixture(scope="module")
def graph():
    edges = barabasi_albert_edges(120, 3, rng=0)
    etype = np.arange(len(edges)) % 4
    return Graph.from_undirected(
        120, edges, edge_type=etype, edge_attr=np.eye(4)[etype]
    )


class TestGenerate:
    def test_seeded_streams_replay_identically(self, graph):
        a = generate_events(graph, 60, rng=7, add_fraction=0.7)
        b = generate_events(graph, 60, rng=7, add_fraction=0.7)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.kinds, b.kinds)
        np.testing.assert_array_equal(a.pairs, b.pairs)
        np.testing.assert_array_equal(a.edge_type, b.edge_type)
        np.testing.assert_array_equal(a.edge_attr, b.edge_attr)
        c = generate_events(graph, 60, rng=8, add_fraction=0.7)
        assert not np.array_equal(a.pairs, c.pairs)

    def test_times_non_decreasing(self, graph):
        ev = generate_events(graph, 50, rng=1)
        assert np.all(np.diff(ev.times) >= 0)

    def test_invalidations_always_match_a_live_edge(self, graph):
        """Every retraction targets an edge live at that point in time."""
        ev = generate_events(graph, 200, rng=3, add_fraction=0.5)
        src, dst = graph.edge_index
        live = set()
        for u, v in zip(src.tolist(), dst.tolist()):
            live.add((min(u, v), max(u, v)))
        multi = {}
        for key in live:
            multi[key] = multi.get(key, 0) + 1
        # The base graph dedupes to one count each; track multiplicity
        # as the stream adds/removes.
        for i in range(len(ev)):
            u, v = sorted(map(int, ev.pairs[i]))
            if ev.kinds[i] == ADD_EDGE:
                multi[(u, v)] = multi.get((u, v), 0) + 1
            else:
                assert multi.get((u, v), 0) > 0, f"event {i} retracts a dead edge"
                multi[(u, v)] -= 1

    def test_class_drift_skews_late_labels(self, graph):
        ev = generate_events(
            graph, 400, rng=5, add_fraction=1.0, num_classes=4, class_drift=6.0
        )
        early = ev.labels[:150].mean()
        late = ev.labels[-150:].mean()
        assert late > early  # drift direction tilts toward higher class ids

    def test_attrs_one_hot_in_graph_width(self, graph):
        ev = generate_events(graph, 30, rng=2)
        assert ev.edge_attr is not None and ev.edge_attr.shape == (30, 4)
        np.testing.assert_array_equal(ev.edge_attr.sum(axis=1), np.ones(30))

    def test_attrless_graph_gives_attrless_events(self):
        g = Graph.from_undirected(10, np.array([[0, 1], [1, 2]]))
        ev = generate_events(g, 10, rng=0)
        assert ev.edge_attr is None

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            generate_events(graph, -1)
        with pytest.raises(ValueError):
            generate_events(graph, 5, add_fraction=1.5)
        for drift in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="class_drift must be finite"):
                generate_events(graph, 5, class_drift=drift)


class TestEventBatch:
    def test_windows_partition_the_stream(self, graph):
        ev = generate_events(graph, 25, rng=0)
        windows = list(ev.windows(10))
        assert [len(w) for w in windows] == [10, 10, 5]
        np.testing.assert_array_equal(
            np.concatenate([w.pairs for w in windows]), ev.pairs
        )

    def test_add_invalidate_counts(self, graph):
        ev = generate_events(graph, 40, rng=0, add_fraction=0.6)
        assert ev.num_added + ev.num_invalidated == 40
        assert ev.num_invalidated == int(np.sum(ev.kinds == INVALIDATE_EDGE))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            EventBatch(
                times=np.zeros(3),
                kinds=np.zeros(3, np.int8),
                pairs=np.zeros((2, 2), np.int64),
                edge_type=np.zeros(3, np.int64),
                labels=np.zeros(3, np.int64),
            )
        with pytest.raises(ValueError):
            EventBatch(
                times=np.array([1.0, 0.5]),
                kinds=np.zeros(2, np.int8),
                pairs=np.zeros((2, 2), np.int64),
                edge_type=np.zeros(2, np.int64),
                labels=np.zeros(2, np.int64),
            )

    def test_events_from_links(self):
        pairs = np.array([[0, 1], [2, 3]])
        labels = np.array([1, 0])
        ev = events_from_links(pairs, labels)
        assert len(ev) == 2
        assert ev.num_added == 2
        np.testing.assert_array_equal(ev.edge_type, labels)
        np.testing.assert_array_equal(ev.times, [0.0, 1.0])
