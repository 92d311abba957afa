#!/usr/bin/env python
"""Bring your own graph: SEAL link prediction on a custom network.

Shows the general-purpose API for graphs that are not one of the
built-in benchmarks: build a ``repro.graph.Graph`` from raw edge data,
wrap it with :func:`repro.seal.make_link_prediction_task`, run 3-fold
cross-validation with AM-DGCNN, and persist the task + trained weights.

The demo network is a two-level hierarchy (departments inside
organizations) with collaboration edges — a stand-in for whatever edge
list you have lying around.

Run:  python examples/custom_graph.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.graph import Graph, graph_report, stochastic_block_edges
from repro.models import AMDGCNN
from repro.seal import (
    SEALDataset,
    TrainConfig,
    cross_validate,
    make_link_prediction_task,
)
from repro.store import load_task, save_task
from repro.utils import save_arrays
from repro.data import warm


def build_collaboration_network(rng=0) -> Graph:
    """A 300-node collaboration network with 6 communities."""
    edges = stochastic_block_edges([50] * 6, p_in=0.15, p_out=0.005, rng=rng)
    # Node features: noisy community membership (like a skills profile).
    gen = np.random.default_rng(rng)
    community = np.repeat(np.arange(6), 50)
    observed = community.copy()
    flip = gen.random(300) < 0.2
    observed[flip] = gen.integers(0, 6, size=int(flip.sum()))
    features = np.eye(6)[observed]
    return Graph.from_undirected(300, edges, node_features=features)


def main() -> None:
    graph = build_collaboration_network()
    print("structural report:", {
        k: (round(v, 3) if isinstance(v, float) else v)
        for k, v in graph_report(graph).items() if k != "degree"
    })

    # 1. Wrap the graph into a balanced existence task.
    task = make_link_prediction_task(graph, num_samples=200, name="collab", rng=0)
    dataset = SEALDataset(task, rng=0)
    warm(dataset)
    print(f"task: {task.num_links} links, feature width {dataset.feature_width}")

    # 2. 3-fold cross-validated AM-DGCNN.
    def factory(fold: int) -> AMDGCNN:
        return AMDGCNN(
            dataset.feature_width, 2, edge_dim=0, heads=2,
            hidden_dim=32, num_conv_layers=2, sort_k=20, dropout=0.0, rng=fold,
        )

    cv = cross_validate(
        factory, dataset, TrainConfig(epochs=6, batch_size=16, lr=3e-3), k=3, rng=0
    )
    summary = cv.summary()
    print(
        f"3-fold AUC {summary['auc_mean']:.3f} ± {summary['auc_std']:.3f}, "
        f"AP {summary['ap_mean']:.3f} ± {summary['ap_std']:.3f}"
    )

    # 3. Persist the task and one trained model for later reuse.
    out_dir = Path(tempfile.mkdtemp(prefix="repro-custom-"))
    save_task(out_dir / "collab_task", task)
    model = factory(0)
    from repro.seal import train, train_test_split_indices

    tr, te = train_test_split_indices(task.num_links, 0.25, labels=task.labels, rng=0)
    train(model, dataset, tr, TrainConfig(epochs=6, batch_size=16, lr=3e-3), rng=0)
    save_arrays(out_dir / "model.npz", model.state_dict())
    reloaded = load_task(out_dir / "collab_task")
    assert reloaded.num_links == task.num_links
    assert reloaded.graph.is_mmap  # graph arrays come back memory-mapped
    print(f"task + weights persisted under {out_dir} and reloaded OK")


if __name__ == "__main__":
    main()
