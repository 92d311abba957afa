#!/usr/bin/env python
"""Maintenance script: regenerate TUNED_HPARAMS for repro.experiments.config.

Runs the CBO tuner (paper §III-D, Table I space) for each (dataset,
model) pair on a validation split at reduced scale and prints the best
configurations as a Python dict ready to paste into
``repro/experiments/config.py``. This is the provenance of the baked-in
values — rerun after changing the datasets or models.

Usage:  python scripts/run_tuning.py [--trials 8] [--scale 0.3]
                                     [--checkpoint-dir DIR] [--no-resume]

``--checkpoint-dir`` makes the sweep crash-safe: each (dataset, model)
pair's trial log is persisted after every trial, and a rerun with the
same flags restarts from the completed trials.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.datasets import dataset_names, load_dataset
from repro.experiments.config import MODEL_NAMES, ModelHyperparams, build_model
from repro.seal import SEALDataset, train_test_split_indices
from repro.tuning import CBOTuner, make_seal_evaluator, paper_table1_space
from repro.data import warm
from repro.utils.cli import add_scale, scale_usage_errors

TUNE_TARGETS = {"primekg": 300, "biokg": 200, "wordnet": 300, "cora": 200}


def make_evaluator(ds, task, tr, va, model_name):
    def builder(config):
        hp = ModelHyperparams(
            lr=float(config["lr"]),
            hidden_dim=int(config["hidden_dim"]),
            sort_k=int(config["sort_k"]),
        )
        return build_model(
            model_name, ds.feature_width, task.num_classes, task.edge_attr_dim,
            hp, rng=1,
        )

    return make_seal_evaluator(ds, tr, va, builder, epochs=5, batch_size=16, rng=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=8)
    add_scale(parser, 0.3)
    parser.add_argument("--datasets", nargs="*", default=None, choices=dataset_names())
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist per-pair trial logs here; reruns resume from them",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore existing trial logs (start every pair from scratch)",
    )
    args = parser.parse_args(argv)

    results = {}
    for name in args.datasets or dataset_names():
        with scale_usage_errors(parser):
            task = load_dataset(name, scale=args.scale, rng=0, num_targets=TUNE_TARGETS[name])
        ds = SEALDataset(task, rng=0)
        tr, va = train_test_split_indices(task.num_links, 0.3, labels=task.labels, rng=0)
        warm(ds)
        results[name] = {}
        for model_name in MODEL_NAMES:
            t0 = time.time()
            tuner = CBOTuner(
                paper_table1_space(), n_initial=4, candidate_pool=256, rng=0
            )
            ckpt_path = (
                Path(args.checkpoint_dir) / f"{name}_{model_name}.json"
                if args.checkpoint_dir
                else None
            )
            res = tuner.run(
                make_evaluator(ds, task, tr, va, model_name),
                args.trials,
                checkpoint_path=ckpt_path,
                resume=not args.no_resume,
            )
            best = res.best_config
            results[name][model_name] = {
                "lr": round(float(best["lr"]), 6),
                "hidden_dim": int(best["hidden_dim"]),
                "sort_k": int(best["sort_k"]),
                "val_auc": round(res.best_score, 4),
            }
            print(
                f"{name}/{model_name}: best {results[name][model_name]} "
                f"({time.time() - t0:.0f}s)",
                flush=True,
            )
    print("\n" + json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
