"""A1 — ablation of §III-A: union vs intersection enclosing subgraphs.

The paper uses the intersection of the k-hop neighborhoods for PrimeKG
"to reduce the subgraph size, which has been verified empirically".
This benchmark verifies exactly that: intersection subgraphs are
substantially smaller while AM-DGCNN accuracy stays comparable.
"""

import dataclasses

import numpy as np

from repro.datasets import load_primekg_like
from repro.experiments.config import DEFAULT_HPARAMS, build_model, train_config_for
from repro.seal import SEALDataset, evaluate, train, train_test_split_indices
from repro.data import warm


def run_mode(mode: str):
    task = load_primekg_like(scale=0.25, num_targets=350, rng=0)
    task = dataclasses.replace(task, subgraph_mode=mode, max_subgraph_nodes=None)
    ds = SEALDataset(task, rng=0)
    tr, te = train_test_split_indices(task.num_links, 0.25, labels=task.labels, rng=0)
    warm(ds)
    sizes = ds.store.node_count.copy()
    model = build_model(
        "am_dgcnn", ds.feature_width, task.num_classes, task.edge_attr_dim,
        DEFAULT_HPARAMS, rng=1,
    )
    train(model, ds, tr, train_config_for(DEFAULT_HPARAMS, epochs=8), rng=1)
    result = evaluate(model, ds, te)
    return sizes, result


def test_ablation_subgraph_mode(benchmark):
    def run_both():
        return {mode: run_mode(mode) for mode in ("union", "intersection")}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    u_sizes, u_res = results["union"]
    i_sizes, i_res = results["intersection"]

    print("\nAblation A1 — subgraph extraction mode (PrimeKG-like)")
    print(f"  union:        mean size {u_sizes.mean():7.1f}  AUC {u_res.auc:.3f}")
    print(f"  intersection: mean size {i_sizes.mean():7.1f}  AUC {i_res.auc:.3f}")

    # The paper's empirical claim: intersection shrinks subgraphs...
    assert i_sizes.mean() < 0.8 * u_sizes.mean()
    # ...without giving up classification accuracy.
    assert i_res.auc > u_res.auc - 0.07
    assert i_res.auc > 0.8
