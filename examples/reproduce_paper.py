#!/usr/bin/env python
"""Regenerate every paper artifact in one run (reduced scale).

Drives the same experiment modules the benchmarks use and prints: the
Table II dataset summary, Table III accuracy comparison, the Fig. 3–6
epoch sweeps, and the Fig. 7–9 sample sweeps. At the default
``--scale 0.35`` this takes tens of minutes on a laptop CPU; increase
``--scale`` toward 1.0 for numbers closer to the full synthetic sizes.

Run:  python examples/reproduce_paper.py [--scale S] [--datasets ...]
"""

from __future__ import annotations

import argparse

from repro.datasets import PAPER_SCHEMAS, dataset_names, load_dataset
from repro.experiments import (
    ExperimentRunner,
    format_epoch_sweep,
    format_sample_sweep,
    format_table3,
    render_table,
    run_epoch_sweep,
    run_sample_sweep,
    run_table3,
)
from repro.utils import Timer
from repro.utils.cli import add_scale, add_seed, scale_usage_errors


def print_table2(scale: float) -> None:
    rows = []
    for name in dataset_names():
        task = load_dataset(name, scale=scale, rng=0)
        schema = PAPER_SCHEMAS[name]
        rows.append(
            [
                schema.name,
                f"{schema.paper_node_types}/{task.graph.num_node_types}",
                f"{schema.paper_edge_types}/{task.graph.num_edge_types}",
                f"{schema.paper_nodes}/{task.graph.num_nodes}",
                f"{schema.paper_edges}/{task.graph.num_edges // 2}",
            ]
        )
    print("\n### Table II (paper/ours) ###")
    print(render_table(["Dataset", "#NodeT", "#EdgeT", "#Nodes", "#Edges"], rows))


def reproduce(scale: float, seed: int, datasets) -> None:
    print_table2(scale)

    runner = ExperimentRunner(scale=scale, seed=seed)

    with Timer() as t:
        results = run_table3(runner, datasets)
    print(f"\n### Table III (measured vs paper, {t.elapsed:.0f}s) ###")
    print(format_table3(results))

    for ds in datasets:
        with Timer() as t:
            curves = run_epoch_sweep(
                runner, ds, settings=("default", "tuned") if ds != "cora" else ("tuned",)
            )
        fig = {"cora": 3, "primekg": 4, "biokg": 5, "wordnet": 6}[ds]
        print(f"\n### Fig {fig} — {ds} epochs sweep ({t.elapsed:.0f}s) ###")
        print(format_epoch_sweep(ds, curves))

    for ds in [d for d in datasets if d != "cora"]:
        with Timer() as t:
            curves = run_sample_sweep(runner, ds)
        fig = {"primekg": 7, "biokg": 8, "wordnet": 9}[ds]
        print(f"\n### Fig {fig} — {ds} samples sweep ({t.elapsed:.0f}s) ###")
        print(format_sample_sweep(ds, curves))


def main() -> None:
    parser = argparse.ArgumentParser()
    add_scale(parser, 0.35)
    add_seed(parser)
    parser.add_argument(
        "--datasets", nargs="*", choices=dataset_names(), default=None, help="datasets to run"
    )
    args = parser.parse_args()
    with scale_usage_errors(parser):
        reproduce(args.scale, args.seed, args.datasets or dataset_names())


if __name__ == "__main__":
    main()
