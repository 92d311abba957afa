"""Streaming microbenchmarks: delta-aware invalidation and incremental snapshots.

Two kernels, both timing the streaming tentpole against its from-scratch
counterpart:

* ``delta_rescoring`` — a ``LinkScorer`` holding a warm working set of
  pairs re-scores that set after a small graph delta. Full-clear
  invalidation drops every subgraph and score; delta-aware invalidation
  retires only the pairs whose k-hop neighborhood intersects the
  delta's touched nodes, answering the rest from cache. The probability
  matrices are asserted bit-identical first (the correctness contract),
  then both paths are timed. Acceptance: >= 3x.
* ``snapshot_apply`` — driving a window of events into an epoch-versioned
  CSR snapshot: ``StreamingGraph.apply`` + ``snapshot`` (one splice
  per storage and CSR array, snapshot wraps the arrays without a copy)
  vs rebuilding the graph and its CSR from the full edge list every
  window. Acceptance: the incremental path never loses (>= 1x).

Appends every run to ``results/BENCH_stream.json`` — the record
``scripts/check_bench.py --suite stream`` gates on.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.graph.generators import barabasi_albert_edges
from repro.graph.structure import Graph
from repro.models import AMDGCNN
from repro.seal import FeatureConfig, LinkTask
from repro.serve import LinkScorer, ModelBundle
from repro.stream import StreamingGraph, events_from_links, generate_events

from bench_utils import append_run

RESULTS = Path(__file__).resolve().parent.parent / "results" / "BENCH_stream.json"

MICRO_BATCH = 16
WORKING_SET = 64  # warm pairs the scorer re-serves after each delta


def best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def geomean(values: List[float]) -> float:
    return float(np.exp(np.mean(np.log(values))))


# --------------------------------------------------------------------- #
# delta_rescoring
# --------------------------------------------------------------------- #
def ring_chord_graph(n: int) -> Graph:
    """Sparse ring + long chords (degree 4): 2-hop halos stay tiny, so a
    one-edge delta leaves almost every cached pair untouched — the
    serving regime delta-aware invalidation exists for."""
    u = np.arange(n)
    edges = np.concatenate(
        [np.stack([u, (u + 1) % n], 1), np.stack([u, (u + 7) % n], 1)]
    )
    etype = np.arange(len(edges)) % 3
    return Graph.from_undirected(
        n,
        edges,
        node_type=u % 2,
        edge_type=etype,
        edge_attr=np.eye(3)[etype],
    )


def make_bundle(graph: Graph, seed: int) -> ModelBundle:
    task = LinkTask(
        graph=graph,
        pairs=np.array([[0, 1]]),
        labels=np.zeros(1, dtype=np.int64),
        num_classes=3,
        feature_config=FeatureConfig(num_node_types=2),
        name="bench-stream",
        subgraph_mode="union",
        num_hops=2,
        max_subgraph_nodes=60,
        edge_attr_dim=3,
    )
    model = AMDGCNN(
        task.feature_config.width, task.num_classes, edge_dim=task.edge_attr_dim,
        heads=2, hidden_dim=16, num_conv_layers=2, sort_k=10, rng=seed,
    )
    return ModelBundle.from_model(model, task, extraction_seed=seed)


def bench_delta_rescoring(records: List[Dict]) -> None:
    n = 2_000
    graph = ring_chord_graph(n)
    graph.csr()
    bundle = make_bundle(graph, seed=3)
    rng = np.random.default_rng(0)
    pairs = np.stack(
        [rng.permutation(n)[:WORKING_SET], rng.permutation(n)[:WORKING_SET]], axis=1
    )
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # A couple of pairs right next to the delta, so the delta path pays
    # for real re-extraction of its retired pairs, not just the halo
    # computation.
    pairs = np.concatenate([pairs, np.array([[999, 1002], [1001, 1005]])])

    # One published edge between consecutive ring nodes: a small, local
    # delta of the kind a temporal stream emits every window.
    stream = StreamingGraph(graph)
    stream.apply(
        events_from_links(
            np.array([[1000, 1001]]), np.array([1]), edge_attr=np.eye(3)[[1]]
        )
    )
    snap = stream.snapshot()

    def scorer() -> LinkScorer:
        sc = LinkScorer(bundle, graph, micro_batch=MICRO_BATCH)
        sc.score(pairs)  # warm working set: subgraphs + score cache
        return sc

    # Correctness contract first: both invalidation paths produce the
    # same bits for every pair of the working set.
    full_sc, delta_sc = scorer(), scorer()
    full_sc.invalidate(snap.graph)
    delta_sc.invalidate(snap.graph, delta=snap.delta)
    ref = full_sc.score(pairs).probs
    got = delta_sc.score(pairs)
    np.testing.assert_array_equal(got.probs, ref)
    retired = int(len(pairs)) - int(got.cached.sum())

    full_sc, delta_sc = scorer(), scorer()
    t_full = best_of(
        lambda: (full_sc.invalidate(snap.graph), full_sc.score(pairs))
    )
    t_delta = best_of(
        lambda: (delta_sc.invalidate(snap.graph, delta=snap.delta),
                 delta_sc.score(pairs))
    )
    records.append(
        {
            "kernel": "delta_rescoring",
            "num_nodes": n,
            "working_set": int(len(pairs)),
            "retired_pairs": retired,
            "micro_batch": MICRO_BATCH,
            "baseline_s": round(t_full, 6),
            "delta_s": round(t_delta, 6),
            "speedup": round(t_full / t_delta, 3),
        }
    )


# --------------------------------------------------------------------- #
# snapshot_apply
# --------------------------------------------------------------------- #
def bench_snapshot_apply(records: List[Dict]) -> None:
    n, num_events, window = 4_000, 600, 50
    edges = barabasi_albert_edges(n, 4, rng=0)
    etype = np.arange(len(edges)) % 4
    graph = Graph.from_undirected(
        n, edges, node_type=np.arange(n) % 3, edge_type=etype,
        edge_attr=np.eye(4)[etype],
    )
    events = generate_events(graph, num_events, rng=7, add_fraction=0.8)
    windows = list(events.windows(window))

    def incremental() -> int:
        sg = StreamingGraph(graph)
        for batch in windows:
            sg.apply(batch)
            sg.snapshot().graph.csr()
        return sg.live_edges

    def rebuild() -> int:
        # The from-scratch counterpart: carry the undirected edge list
        # forward and pay a full Graph construction + CSR argsort per
        # window — the costs the incremental path amortizes away.
        und = edges.copy()
        types = etype.copy()
        for batch in windows:
            add = batch.added_mask
            und = np.concatenate([und, batch.pairs[add]])
            types = np.concatenate([types, batch.edge_type[add]])
            keep = np.ones(len(und), dtype=bool)
            for u, v in batch.pairs[~add]:
                match = np.flatnonzero(
                    keep
                    & (((und[:, 0] == u) & (und[:, 1] == v))
                       | ((und[:, 0] == v) & (und[:, 1] == u)))
                )
                if match.size:
                    keep[match[0]] = False
            und, types = und[keep], types[keep]
            g = Graph.from_undirected(
                n, und, node_type=graph.node_type, edge_type=types,
                edge_attr=np.eye(4)[types],
            )
            g.csr()
        return len(und)

    assert incremental() == rebuild()  # both replays agree on the live set

    t_inc = best_of(incremental, repeats=3)
    t_rebuild = best_of(rebuild, repeats=3)
    records.append(
        {
            "kernel": "snapshot_apply",
            "num_nodes": n,
            "base_edges": int(len(edges)),
            "events": num_events,
            "window": window,
            "baseline_s": round(t_rebuild, 6),
            "incremental_s": round(t_inc, 6),
            "events_per_s": round(num_events / t_inc, 1),
            "speedup": round(t_rebuild / t_inc, 3),
        }
    )


def test_streaming_beats_from_scratch():
    records: List[Dict] = []
    bench_delta_rescoring(records)
    bench_snapshot_apply(records)

    append_run(RESULTS, records, benchmark="stream")

    for r in records:
        extra = (
            f"retired {r['retired_pairs']}/{r['working_set']} pairs"
            if r["kernel"] == "delta_rescoring"
            else f"{r['events_per_s']:.0f} events/s"
        )
        print(
            f"\n{r['kernel']}: baseline {r['baseline_s'] * 1e3:8.1f} ms vs "
            f"{min(v for k, v in r.items() if k.endswith('_s') and k != 'baseline_s') * 1e3:8.1f} ms "
            f"({r['speedup']:.2f}x, {extra})"
        )

    # Acceptance: re-scoring a warm working set after a small delta must
    # be >= 3x faster than the full clear, and the incremental snapshot
    # path must never lose to rebuilding from scratch.
    delta = [r["speedup"] for r in records if r["kernel"] == "delta_rescoring"]
    assert geomean(delta) >= 3.0, f"delta rescoring speedups too low: {delta}"
    snap = [r["speedup"] for r in records if r["kernel"] == "snapshot_apply"]
    assert geomean(snap) >= 1.0, f"snapshot apply speedups too low: {snap}"
