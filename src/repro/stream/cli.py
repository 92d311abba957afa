"""``python -m repro stream`` — prequential streaming over a dataset.

Loads one of the bundled knowledge graphs, optionally pre-trains the
model on the dataset's labeled links, then generates a seeded temporal
event stream and drives the model prequentially (test-then-train) over
it with :func:`repro.stream.run_prequential`. Prints a JSON report:
per-window accuracy, the offline-style aggregate metrics over every
streamed link, drift signals, and the streaming-graph statistics
(snapshot version, live edges).

Example::

    python -m repro stream --dataset primekg --scale 0.15 \
        --events 200 --window 25 --pretrain-epochs 1 --json out.json
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from repro.utils.cli import (
    add_dataset,
    add_json,
    add_scale,
    add_seed,
    add_targets,
    directory,
    number_at_least,
    write_report,
)
from repro.utils.rng import derive

__all__ = ["add_arguments", "run"]


def add_arguments(p) -> None:
    add_dataset(p, "primekg")
    add_scale(p, 0.15)
    add_targets(p, 60)
    add_seed(p)
    p.add_argument(
        "--events", type=number_at_least(int, 0), default=150, help="stream length"
    )
    p.add_argument(
        "--add-fraction",
        type=number_at_least(float, 0.0),
        default=0.85,
        help="fraction of add (vs invalidate) events, at most 1",
    )
    p.add_argument(
        "--class-drift",
        type=number_at_least(float, -math.inf),
        default=1.5,
        help="label-distribution drift strength over the stream",
    )
    p.add_argument(
        "--window", type=number_at_least(int, 1), default=25, help="events per window"
    )
    p.add_argument("--eval-batch-size", type=number_at_least(int, 1), default=8)
    p.add_argument(
        "--pretrain-epochs",
        type=number_at_least(int, 0),
        default=1,
        help="epochs on the base task",
    )
    p.add_argument(
        "--train-epochs",
        type=number_at_least(int, 0),
        default=1,
        help="epochs per stream window",
    )
    p.add_argument(
        "--train-window",
        type=number_at_least(int, 1),
        default=100,
        help="sliding training buffer",
    )
    p.add_argument("--batch-size", type=number_at_least(int, 1), default=8)
    p.add_argument("--lr", type=number_at_least(float, 0.0, strict=True), default=1e-3)
    p.add_argument(
        "--snapshot-dir",
        type=directory,
        default=None,
        help="persist every snapshot (mmap-openable) under this directory",
    )
    add_json(p)


def run(args) -> int:
    if args.add_fraction > 1.0:
        raise argparse.ArgumentError(
            None, f"argument --add-fraction: must be <= 1.0, got {args.add_fraction}"
        )
    from repro.datasets import load_dataset
    from repro.models import AMDGCNN
    from repro.seal import SEALDataset, TrainConfig, train
    from repro.stream import (
        StreamConfig,
        StreamingGraph,
        generate_events,
        run_prequential,
    )
    t_start = time.perf_counter()
    task = load_dataset(
        args.dataset, scale=args.scale, rng=args.seed, num_targets=args.num_targets
    )
    model = AMDGCNN(
        task.feature_config.width,
        task.num_classes,
        edge_dim=task.edge_attr_dim,
        rng=derive(args.seed, "stream-init"),
    )
    pretrain_s = 0.0
    if args.pretrain_epochs > 0 and task.num_links:
        ds = SEALDataset(task, rng=args.seed)
        t0 = time.perf_counter()
        train(
            model,
            ds,
            np.arange(task.num_links),
            TrainConfig(epochs=args.pretrain_epochs, batch_size=args.batch_size),
            rng=derive(args.seed, "stream-pretrain"),
            verbose=False,
        )
        pretrain_s = time.perf_counter() - t0

    events = generate_events(
        task.graph,
        args.events,
        rng=derive(args.seed, "stream-events"),
        add_fraction=args.add_fraction,
        num_classes=task.num_classes,
        class_drift=args.class_drift,
    )
    stream = StreamingGraph(task.graph, snapshot_dir=args.snapshot_dir)
    config = StreamConfig(
        window_size=args.window,
        eval_batch_size=args.eval_batch_size,
        train_epochs=args.train_epochs,
        train_window=args.train_window,
        batch_size=args.batch_size,
        lr=args.lr,
    )
    result = run_prequential(
        model,
        stream,
        task,
        events,
        config,
        rng=derive(args.seed, "stream-run"),
        extraction_rng=args.seed,
    )

    report = {
        "workload": {
            "dataset": args.dataset,
            "scale": args.scale,
            "seed": args.seed,
            "events": len(events),
            "adds": events.num_added,
            "invalidations": events.num_invalidated,
            "window_size": args.window,
            "pretrain_epochs": args.pretrain_epochs,
        },
        "prequential": result.summary(),
        "windows": [
            {
                "window": w.window,
                "version": w.version,
                "events": w.events,
                "test_links": w.test_links,
                "accuracy": None if np.isnan(w.accuracy) else w.accuracy,
                "trained_links": w.trained_links,
            }
            for w in result.windows
        ],
        "stream_graph": stream.stats(),
        "timing": {
            "pretrain_s": pretrain_s,
            "total_s": time.perf_counter() - t_start,
        },
    }
    write_report(report, args.json)
    return 0
