"""Zero-copy storage benchmark at the 10⁵-node scale (``repro.store``).

Builds a 100k-node preferential-attachment knowledge graph (the
vectorized :func:`~repro.graph.generators.preferential_attachment_edges`
— the Python-loop generator cannot reach this size), saves it once, and
times ``mmap_open``: reopening the saved graph memory-mapped vs loading
it fully into RAM. An mmap open reads one JSON header and maps pages
lazily, so it should beat the full read by orders of magnitude.

Appends every run to ``results/BENCH_scale.json``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.data.loader import usable_cores
from repro.graph.generators import preferential_attachment_edges
from repro.graph.structure import Graph

from bench_utils import append_run

RESULTS = Path(__file__).resolve().parent.parent / "results" / "BENCH_scale.json"
NUM_NODES = 100_000
ATTACH_M = 3


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def saved_graph(tmp_path_factory) -> Path:
    edges = preferential_attachment_edges(NUM_NODES, ATTACH_M, rng=0)
    etype = np.arange(len(edges)) % 4
    graph = Graph.from_undirected(
        NUM_NODES,
        edges,
        node_type=np.arange(NUM_NODES) % 3,
        edge_type=etype,
        edge_attr=np.eye(4)[etype],
    )
    graph.csr()  # persist the CSR too — Graph.open maps it back
    directory = tmp_path_factory.mktemp("scale-graph")
    graph.save(directory)
    return directory


def bench_mmap_open(saved_graph: Path, records: List[Dict]) -> None:
    on_disk = sum(f.stat().st_size for f in saved_graph.iterdir())
    t_mmap = best_of(lambda: Graph.open(saved_graph, mmap=True), repeats=5)
    t_full = best_of(lambda: Graph.open(saved_graph, mmap=False), repeats=5)
    records.append(
        {
            "kernel": "mmap_open",
            "num_nodes": NUM_NODES,
            "bytes_on_disk": int(on_disk),
            "usable_cores": usable_cores(),
            "baseline_s": round(t_full, 6),
            "store_s": round(t_mmap, 6),
            "speedup": round(t_full / t_mmap, 3),
        }
    )


def test_store_scale(saved_graph):
    records: List[Dict] = []
    bench_mmap_open(saved_graph, records)

    append_run(RESULTS, records, benchmark="scale")

    mo = records[0]
    print(
        f"\nmmap_open  ({mo['bytes_on_disk'] / 1e6:.1f} MB): "
        f"full {mo['baseline_s'] * 1e3:8.2f} ms, "
        f"mmap {mo['store_s'] * 1e3:8.2f} ms  ({mo['speedup']:.1f}x)"
    )

    # mmap must make opening effectively free relative to a full read.
    assert mo["speedup"] >= 2.0, f"mmap open not faster than full load: {mo}"
