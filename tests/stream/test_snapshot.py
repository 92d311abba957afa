"""StreamingGraph: incremental CSR snapshots vs from-scratch rebuilds.

A snapshot is a ``Graph`` wrapped around the stream's spliced arrays
(``Graph.trusted``, no validation pass); with a ``snapshot_dir`` it is
written by ``Graph.save`` and reopened memory-mapped by ``Graph.open``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import barabasi_albert_edges
from repro.graph.structure import Graph
from repro.stream import (
    ADD_EDGE,
    INVALIDATE_EDGE,
    EventBatch,
    GraphDelta,
    StreamingGraph,
    events_from_links,
    generate_events,
)
from tests.oracles import neighbors

pytestmark = pytest.mark.stream


def retractions(pairs, labels, edge_attr=None):
    """``events_from_links`` of the same links as invalidate events."""
    events = events_from_links(pairs, labels, edge_attr=edge_attr)
    return dataclasses.replace(events, kinds=np.full(len(events), INVALIDATE_EDGE, np.int8))


def make_graph(n=150, seed=0):
    edges = barabasi_albert_edges(n, 3, rng=seed)
    rng = np.random.default_rng(seed)
    etype = rng.integers(0, 4, len(edges))
    return Graph.from_undirected(
        n,
        edges,
        node_type=rng.integers(0, 3, n),
        edge_type=etype,
        edge_attr=np.eye(4)[etype],
    )


def arc_multiset(graph):
    """Canonical sorted view of (src, dst, type, attr-argmax) rows."""
    src, dst = graph.edge_index
    attr = (
        graph.edge_attr.argmax(axis=1)
        if graph.edge_attr is not None
        else np.zeros_like(src)
    )
    rows = np.stack([src, dst, graph.edge_type, attr], axis=1)
    return rows[np.lexsort(rows.T[::-1])]


class TestVersionZero:
    def test_snapshot_is_the_base_graph(self):
        """Version 0 of an untouched stream IS the base graph object —
        same storage order and arc ids, so extraction (which orders
        subgraph edges by arc id) is bit-for-bit the offline path."""
        g = make_graph()
        snap = StreamingGraph(g).snapshot()
        assert snap.version == 0
        assert len(snap.delta.added) == len(snap.delta.removed) == 0
        assert snap.graph is g

    def test_net_noop_mutation_preserves_csr_traversal(self):
        """Add an edge then retract it: the v2 table re-ordering must
        leave every CSR traversal sequence (neighbors, types, attrs)
        identical to the base graph's."""
        g = make_graph()
        sg = StreamingGraph(g)
        churn = events_from_links(
            np.array([[0, 99]]), np.array([1]), edge_attr=np.eye(4)[[1]]
        )
        sg.apply(churn)
        sg.snapshot()
        sg.apply(
            retractions(
                np.array([[0, 99]]), np.array([1]),
                edge_attr=np.eye(4)[[1]],
            )
        )
        snap = sg.snapshot()
        assert snap.version == 2
        i0, d0, e0 = g.csr()
        i1, d1, e1 = snap.graph.csr()
        np.testing.assert_array_equal(i0, i1)
        np.testing.assert_array_equal(d0, d1)
        np.testing.assert_array_equal(g.edge_type[e0], snap.graph.edge_type[e1])
        np.testing.assert_array_equal(g.edge_attr[e0], snap.graph.edge_attr[e1])
        np.testing.assert_array_equal(g.node_type, snap.graph.node_type)

    def test_quiet_snapshot_is_idempotent(self):
        sg = StreamingGraph(make_graph())
        a, b = sg.snapshot(), sg.snapshot()
        assert a.graph is b.graph and a.version == b.version == 0


class TestApply:
    def test_incremental_equals_rebuild(self):
        """After any add/invalidate mix, the snapshot's edge multiset
        equals a from-scratch Graph built from the surviving edges."""
        g = make_graph()
        ev = generate_events(g, 120, rng=9, add_fraction=0.6)
        sg = StreamingGraph(g)
        sg.apply(ev)
        snap = sg.snapshot()
        assert snap.version == 1

        # Replay naively over an undirected edge list.
        und = {}
        src, dst = g.edge_index
        for i in range(0, g.num_edges, 2):
            u, v = int(src[i]), int(dst[i])
            key = (min(u, v), max(u, v))
            und.setdefault(key, []).append((int(g.edge_type[i]), int(g.edge_attr[i].argmax())))
        for i in range(len(ev)):
            u, v = sorted(map(int, ev.pairs[i]))
            if ev.kinds[i] == 0:
                und.setdefault((u, v), []).append(
                    (int(ev.edge_type[i]), int(ev.edge_attr[i].argmax()))
                )
            else:
                und[(u, v)].pop(0)
        pairs, etypes = [], []
        for (u, v), variants in und.items():
            for t, a in variants:
                pairs.append((u, v))
                etypes.append(t)
        pairs = np.asarray(pairs, dtype=np.int64)
        etypes = np.asarray(etypes, dtype=np.int64)
        rebuilt = Graph.from_undirected(
            g.num_nodes,
            pairs,
            node_type=g.node_type,
            edge_type=etypes,
            edge_attr=np.eye(4)[etypes],
        )
        np.testing.assert_array_equal(arc_multiset(snap.graph), arc_multiset(rebuilt))
        # CSR invariants of the precomputed (sort-free) construction.
        indptr, indices, edge_ids = snap.graph.csr()
        assert indptr[-1] == snap.graph.num_edges
        np.testing.assert_array_equal(
            np.diff(indptr), np.bincount(snap.graph.edge_index[0], minlength=g.num_nodes)
        )

    def test_delta_reports_what_changed(self):
        g = make_graph()
        sg = StreamingGraph(g)
        add = events_from_links(
            np.array([[1, 50], [2, 60]]), np.array([0, 1]),
            edge_attr=np.eye(4)[[0, 1]],
        )
        sg.apply(add)
        snap = sg.snapshot()
        np.testing.assert_array_equal(snap.delta.added, [[1, 50], [2, 60]])
        assert len(snap.delta.removed) == 0
        np.testing.assert_array_equal(snap.delta.touched_nodes, [1, 2, 50, 60])
        assert snap.delta.from_version == 0 and snap.delta.to_version == 1

    def test_unmatched_invalidation_skipped(self, tiny_graph):
        import repro.obs as obs

        sg = StreamingGraph(tiny_graph)
        before = sg.live_edges
        ghost = retractions(
            np.array([[0, 5]]), np.array([0]),
            edge_attr=np.eye(tiny_graph.edge_attr.shape[1])[[0]],
        )
        with obs.capture() as reg:
            sg.apply(ghost)
        snap = sg.snapshot()
        assert sg.live_edges == before
        assert len(snap.delta.removed) == 0
        assert reg.counters["stream.events.unmatched_invalidate"] == 1.0

    def test_out_of_range_pairs_rejected(self, tiny_graph):
        sg = StreamingGraph(tiny_graph)
        bad = events_from_links(
            np.array([[0, 99]]), np.array([0]),
            edge_attr=np.eye(tiny_graph.edge_attr.shape[1])[[0]],
        )
        with pytest.raises(ValueError):
            sg.apply(bad)

    def test_attr_width_mismatch_rejected(self, tiny_graph):
        sg = StreamingGraph(tiny_graph)
        wrong = events_from_links(
            np.array([[0, 1]]), np.array([0]), edge_attr=np.ones((1, 7))
        )
        with pytest.raises(ValueError):
            sg.apply(wrong)


class TestPhysicalRemoval:
    def test_removals_are_physical_immediately(self):
        g = make_graph()
        sg = StreamingGraph(g)
        src, dst = g.edge_index
        kill = retractions(
            np.stack([src[:8:2], dst[:8:2]], axis=1),
            np.zeros(4, np.int64),
            edge_attr=np.eye(4)[np.zeros(4, np.int64)],
        )
        sg.apply(kill.slice(0, 2))
        s1 = sg.snapshot()
        assert s1.graph.num_edges == g.num_edges - 4  # 2 undirected edges = 4 arcs
        assert sg.tombstones == 0 and sg.stats()["tombstone_arcs"] == 0
        sg.apply(kill.slice(2, 4))
        s2 = sg.snapshot()
        assert s2.graph.num_edges == g.num_edges - 8
        assert sg.tombstones == 0
        assert s1.graph.num_edges == g.num_edges - 4  # the held snapshot kept its arcs

    def test_one_way_arc_invalidation_changes_nothing(self):
        """An invalidation removes both arc directions or neither: with
        ``u->v`` live but no ``v->u``, the event is unmatched and the arc
        stays — in this snapshot and after a later valid removal."""
        import repro.obs as obs

        g = Graph(3, [[0, 1, 2], [1, 2, 1]])
        sg = StreamingGraph(g)
        with obs.capture() as reg:
            sg.apply(retractions(np.array([[0, 1]]), np.array([0])))
        s1 = sg.snapshot()
        assert reg.counters["stream.events.unmatched_invalidate"] == 1.0
        assert len(s1.delta.added) == len(s1.delta.removed) == 0
        np.testing.assert_array_equal(s1.graph.edge_index, g.edge_index)
        sg.apply(retractions(np.array([[1, 2]]), np.array([0])))
        s2 = sg.snapshot()
        np.testing.assert_array_equal(s2.delta.removed, [[1, 2]])
        np.testing.assert_array_equal(s2.graph.edge_index, [[0], [1]])
        np.testing.assert_array_equal(neighbors(s2.graph, 0), [1])


class Oracle:
    """Reference replay: a Python list of arcs in insertion order.

    Adds append both arc directions; an invalidation of ``(u, v)`` kills
    the first live ``u->v`` and the first other live ``v->u`` arc, or
    nothing when either is missing. :meth:`graph` builds a fresh
    ``Graph`` whose CSR comes from ``Graph.csr()``'s argsort.
    """

    def __init__(self, base):
        self.base = base
        src, dst = base.edge_index
        self.arcs = [
            (int(s), int(d), int(t), tuple(a))
            for s, d, t, a in zip(src, dst, base.edge_type, base.edge_attr)
        ]

    def apply(self, batch):
        added, removed = [], []
        rows = zip(batch.kinds, batch.pairs.tolist(), batch.edge_type, batch.edge_attr)
        for kind, (u, v), t, a in rows:
            if kind == ADD_EDGE:
                self.arcs += [(u, v, int(t), tuple(a)), (v, u, int(t), tuple(a))]
                added.append((u, v))
        for kind, (u, v) in zip(batch.kinds, batch.pairs.tolist()):
            if kind != INVALIDATE_EDGE:
                continue
            fwd = next((i for i, arc in enumerate(self.arcs) if arc[:2] == (u, v)), None)
            bwd = next(
                (i for i, arc in enumerate(self.arcs) if arc[:2] == (v, u) and i != fwd), None
            )
            if fwd is not None and bwd is not None:
                for i in sorted((fwd, bwd), reverse=True):
                    del self.arcs[i]
                removed.append((u, v))
        return added, removed

    def graph(self):
        width = self.base.edge_attr.shape[1]
        return Graph(
            self.base.num_nodes,
            np.array([arc[:2] for arc in self.arcs], dtype=np.int64).reshape(-1, 2).T,
            node_type=self.base.node_type,
            edge_type=[arc[2] for arc in self.arcs],
            edge_attr=np.array([arc[3] for arc in self.arcs]).reshape(-1, width),
        )


def snapshot_arrays(graph):
    return [graph.edge_index, graph.edge_type, graph.edge_attr, graph.node_type, *graph.csr()]


def assert_bytes_equal(got, want):
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def as_batch(events):
    """``[(kind, u, v, type), ...]`` -> an ``EventBatch`` with one-hot attrs."""
    kinds, pairs, types = (
        np.array([e[0] for e in events], dtype=np.int8),
        np.array([e[1:3] for e in events], dtype=np.int64).reshape(-1, 2),
        np.array([e[3] for e in events], dtype=np.int64),
    )
    return EventBatch(
        times=np.arange(len(events), dtype=np.float64),
        kinds=kinds,
        pairs=pairs,
        edge_type=types,
        labels=types,
        edge_attr=np.eye(3)[types],
    )


def replay_against_oracle(base, windows):
    """Every snapshot is byte-identical to the oracle's graph, held
    snapshots never change, and their arrays refuse writes."""
    sg, oracle = StreamingGraph(base), Oracle(base)
    held = []
    for window in windows:
        batch = as_batch(window)
        sg.apply(batch)
        snap = sg.snapshot()
        added, removed = oracle.apply(batch)
        want = snapshot_arrays(oracle.graph())
        assert_bytes_equal(snapshot_arrays(snap.graph), want)
        if window:
            np.testing.assert_array_equal(snap.delta.added, np.reshape(added, (-1, 2)))
            np.testing.assert_array_equal(snap.delta.removed, np.reshape(removed, (-1, 2)))
        else:  # a quiet stream hands back the previous snapshot
            assert snap.version == (held[-1][0].version if held else 0)
        held.append((snap, [a.copy() for a in want]))
    for snap, want in held:
        assert_bytes_equal(snapshot_arrays(snap.graph), want)
        if snap.version == 0:
            continue  # the base graph object itself
        for arr in snapshot_arrays(snap.graph)[:3] + list(snap.graph.csr()):
            with pytest.raises(ValueError):
                arr[...] = 0


# (kind, u, v, type) with kind 0 = add, 1 = invalidate.
event = st.tuples(
    st.sampled_from([ADD_EDGE, INVALIDATE_EDGE]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 2),
)


class TestOracle:
    """Snapshots are byte-identical to a naive replay's from-scratch graph."""

    BASE_EDGES = np.array([[0, 1], [1, 2], [2, 2], [0, 1], [3, 4], [1, 4]])

    def base(self, one_way=()):
        """Five nodes with a self-loop, a duplicate edge and optional one-way arcs."""
        sym = Graph.from_undirected(5, self.BASE_EDGES, edge_type=np.arange(6) % 3)
        one_way = np.reshape(np.asarray(one_way, dtype=np.int64), (-1, 2))
        etype = np.concatenate([sym.edge_type, np.zeros(len(one_way), np.int64)])
        return Graph(
            5,
            np.concatenate([sym.edge_index, one_way.T], axis=1),
            node_type=np.arange(5) % 2,
            edge_type=etype,
            edge_attr=np.eye(3)[etype],
        )

    @pytest.mark.parametrize(
        "windows, one_way",
        [
            ([[(0, 0, 3, 1), (1, 0, 1, 0)], [(0, 0, 1, 2)]], ()),  # add, remove, re-add
            ([[(0, 3, 0, 1), (1, 0, 3, 0)]], ()),  # add and retract in one batch
            ([[(0, 1, 2, 0), (0, 2, 3, 1), (1, 1, 2, 0)]], ()),  # the old copy goes first
            ([[(1, 2, 2, 0)], [(1, 2, 2, 0), (0, 2, 2, 1)]], ()),  # self-loops
            ([[(1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 1, 0)]], ()),  # duplicates, one too many
            ([[(1, 3, 4, 0), (1, 1, 4, 0)], [], [(1, 4, 3, 0)]], ()),  # removal-only, empty
            ([[(1, i, j, 0) for i, j in BASE_EDGES], [(0, 0, 0, 0)]], ()),  # empty graph
            (
                [[(1, 0, 2, 0), (1, 2, 0, 0), (1, 4, 4, 0), (0, 4, 4, 1)], [(1, 4, 4, 0)]],
                [[0, 2], [2, 0], [4, 4]],  # one-way arcs, a one-way self-arc
            ),
        ],
    )
    def test_named_cases(self, windows, one_way):
        replay_against_oracle(self.base(one_way), windows)

    @settings(max_examples=150, deadline=None)
    @given(
        windows=st.lists(st.lists(event, max_size=8), min_size=1, max_size=6),
        one_way=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3),
    )
    def test_random_windows(self, windows, one_way):
        replay_against_oracle(self.base(one_way), windows)


class TestPersistence:
    def test_snapshots_stay_mmap_readable(self, tmp_path):
        g = make_graph(80)
        sg = StreamingGraph(g, snapshot_dir=tmp_path)
        s0 = sg.snapshot()
        sg.apply(
            events_from_links(
                np.array([[0, 40]]), np.array([2]), edge_attr=np.eye(4)[[2]]
            )
        )
        s1 = sg.snapshot()
        assert s0.path is not None and s1.path is not None
        old = Graph.open(s0.path, mmap=True)
        new = Graph.open(s1.path, mmap=True)
        assert old.num_edges == g.num_edges
        assert new.num_edges == g.num_edges + 2
        np.testing.assert_array_equal(arc_multiset(old), arc_multiset(s0.graph))
        np.testing.assert_array_equal(arc_multiset(new), arc_multiset(s1.graph))


class TestGraphDelta:
    def test_merge_composes_versions(self):
        a = GraphDelta(0, 1, np.array([[0, 1]]), np.empty((0, 2), np.int64))
        b = GraphDelta(1, 2, np.empty((0, 2), np.int64), np.array([[2, 3]]))
        m = a.merge(b)
        assert (m.from_version, m.to_version) == (0, 2)
        np.testing.assert_array_equal(m.touched_nodes, [0, 1, 2, 3])
        with pytest.raises(ValueError):
            b.merge(a)
