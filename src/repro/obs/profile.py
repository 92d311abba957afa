"""``python -m repro profile`` — end-to-end phase-time breakdown.

Runs a small but complete SEAL workload (dataset generation → subgraph
extraction → training with per-epoch evaluation → inference → serving a
few coalesced requests → a short streaming leg) under
:class:`repro.obs.capture` and prints where the time went:

.. code-block:: bash

    python -m repro profile --smoke            # CI-sized, ~seconds
    python -m repro profile --dataset wordnet --scale 0.3 --epochs 4
    python -m repro profile --smoke --shards 4    # sharded data-parallel
    python -m repro profile --smoke --csv out.csv --json out.json

The JSON report is a generic view of the run's metrics registry:

* ``phases`` — seconds and calls per leaf phase (``extraction`` /
  ``collate`` / ``forward`` / ``backward`` / ``optimizer`` / ``eval`` /
  ``inference`` / ``kernel.*`` / ``extract.*`` / ...), aggregated across
  nesting;
* ``metrics`` — every counter, gauge and histogram summary, grouped by
  the first dotted segment of its name (``serve``, ``kernels``,
  ``distributed``, ...) and keyed by its full name, plus a derived
  ``<stem>.hit_rate`` for every ``<stem>.hits`` / ``<stem>.misses``
  counter pair;
* ``snapshot`` — the raw registry snapshot (what ``--csv`` writes).

Shard worker processes (``--shards K``) record into their own registries
and the parent merges them, so their phases and metrics count like
in-process ones. Merged phase seconds are summed across processes, so
with shard workers they can exceed wall time.

Beside the registry the report carries run facts: ``workload`` (the
sizes, ``graph_source``, the shard ``processes`` actually started and
``checkpoint_dir``), ``cores`` (physical vs usable), ``warnings`` (any
requested parallelism the host cannot deliver), the ``train`` / ``eval``
results, the dataset ``cache``, the ``dtype`` policy and ``memory``.

With ``--shards K`` (K >= 2) the training leg runs through
:func:`repro.distributed.train_data_parallel` — with K worker processes
when the host has >= 2 usable cores, in-process otherwise (numerically
identical either way). With ``--graph-dir DIR`` the first run generates
the synthetic dataset and saves it under DIR
(:func:`repro.store.save_task`); reruns mmap it back instead of
regenerating, which exercises the whole mmap read path end to end.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, Optional

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

__all__ = ["run_profile", "metric_sections", "add_arguments", "run"]

#: Phases the end-to-end workload is guaranteed to exercise — the keys
#: dashboards and the smoke test assert on.
CORE_PHASES = ("extraction", "collate", "forward", "backward", "optimizer", "eval")


def run_profile(
    *,
    dataset: str = "primekg",
    scale: float = 0.2,
    num_targets: int = 80,
    epochs: int = 2,
    batch_size: int = 16,
    hidden_dim: int = 16,
    seed: int = 0,
    shards: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    graph_dir: Optional[str] = None,
    compute_dtype: str = "float64",
    track_memory: bool = False,
) -> Dict[str, Any]:
    """Run the instrumented workload; return the JSON-ready report dict.

    The report's shape is described in the module docstring. With
    ``checkpoint_dir`` the training leg runs crash-safe (epoch bundles
    written under that directory, resumed on rerun when ``resume``).
    With ``graph_dir`` the dataset leg reads a saved task from that
    directory (mmap-backed) when one exists, and otherwise generates the
    synthetic dataset once and saves it there. With ``shards`` >= 2 the
    training leg runs sharded data-parallel — as K worker processes when
    >= 2 usable cores are available, in-process otherwise.
    ``compute_dtype`` selects the precision policy for training, eval and
    serving. With ``track_memory`` the workload runs under
    :mod:`tracemalloc` and ``memory`` adds per-leg Python allocation
    peaks (slower; peak RSS is reported regardless).
    """
    # Imports are deferred so ``import repro.obs`` stays lightweight.
    import os
    import resource
    import tracemalloc

    from repro import obs
    from repro.data.loader import usable_cores
    from repro.datasets import load_dataset
    from repro.nn import dtype as nn_dtype
    from repro.store import has_task, load_task, save_task
    from repro.models import AMDGCNN
    from repro.seal import (
        CheckpointConfig,
        SEALDataset,
        TrainConfig,
        evaluate,
        train,
        train_test_split_indices,
    )
    from repro.serve import LinkScorer, ModelBundle, ScoringServer, ServeConfig
    from repro.utils.rng import derive

    policy = nn_dtype.resolve_dtype(compute_dtype)
    mem_phases: Dict[str, Dict[str, float]] = {}
    if track_memory:
        tracemalloc.start()

    def mem_mark(leg: str) -> None:
        """Record the Python-allocation peak since the previous mark."""
        if not track_memory:
            return
        current, peak = tracemalloc.get_traced_memory()
        mem_phases[leg] = {"current_bytes": float(current), "peak_bytes": float(peak)}
        tracemalloc.reset_peak()

    ckpt = None
    if checkpoint_dir is not None:
        ckpt = CheckpointConfig(dir=checkpoint_dir, every=1, resume=resume)

    usable = usable_cores()
    warnings: list = []
    if shards >= 2 and shards > usable:
        warnings.append(
            f"--shards {shards} exceeds the {usable} usable core(s) on "
            "this host; shard training runs in-process (identical "
            "numbers, no speedup)"
        )
    processes = shards if shards >= 2 and usable >= 2 else 0

    t_start = time.perf_counter()
    with obs.capture() as registry:
        with obs.trace("dataset"):
            if graph_dir is not None and has_task(graph_dir):
                task = load_task(graph_dir, mmap=True)
                graph_source = "mmap"
            else:
                task = load_dataset(dataset, scale=scale, rng=seed, num_targets=num_targets)
                graph_source = "generated"
                if graph_dir is not None:
                    save_task(graph_dir, task)
            ds = SEALDataset(task, rng=seed)
            tr, te = train_test_split_indices(
                task.num_links, 0.25, labels=task.labels, rng=derive(seed, "split")
            )
        mem_mark("dataset")
        model = AMDGCNN(
            ds.feature_width,
            task.num_classes,
            edge_dim=task.edge_attr_dim,
            heads=2,
            hidden_dim=hidden_dim,
            num_conv_layers=2,
            sort_k=10,
            dropout=0.0,
            rng=derive(seed, "init"),
        )
        common = dict(
            epochs=epochs,
            batch_size=batch_size,
            lr=3e-3,
            compute_dtype=compute_dtype,
        )
        if shards >= 2:
            from repro.distributed import DistributedConfig, train_data_parallel

            trainer = train_data_parallel
            config = DistributedConfig(num_shards=shards, processes=processes, **common)
        else:
            trainer, config = train, TrainConfig(**common)
        train_result = trainer(
            model,
            ds,
            tr,
            config,
            eval_indices=te,
            rng=derive(seed, "train"),
            verbose=False,
            checkpoint=ckpt,
        )
        mem_mark("train")
        with nn_dtype.compute_dtype(policy):
            eval_result = evaluate(model, ds, te)
        mem_mark("eval")
        # A taste of the deployment path: bundle the trained model and
        # serve a few coalesced requests through the scoring server.
        bundle = ModelBundle.from_model(
            model, task, extraction_seed=seed, compute_dtype=compute_dtype
        )
        scorer = LinkScorer(bundle, task.graph, rng=derive(seed, "inference"))
        with ScoringServer(scorer, ServeConfig(max_queue_depth=16)) as server:
            futures = [server.submit(task.pairs[i : i + 2]) for i in range(0, 8, 2)]
            for fut in futures:
                fut.result(timeout=60)
            # One replayed request to exercise the score cache.
            server.request(task.pairs[:2], timeout=60)
        mem_mark("serve")
        # Streaming leg: warm a working set, apply a few seeded event
        # windows to an incremental StreamingGraph, and retire only the
        # delta-affected pairs from the scorer (delta-aware
        # invalidation) — retired warm pairs are re-extracted, the rest
        # answer the final request from the surviving caches.
        from repro.stream import DriftTracker, StreamingGraph, generate_events

        with obs.trace("stream"):
            stream_graph = StreamingGraph(task.graph)
            stream_events = generate_events(
                task.graph,
                24,
                rng=derive(seed, "stream"),
                num_classes=task.num_classes,
            )
            drift = DriftTracker()
            scorer.warm(task.pairs[:8])
            for window in stream_events.windows(8):
                stream_graph.apply(window)
                snap = stream_graph.snapshot()
                scorer.invalidate(snap.graph, delta=snap.delta)
                added = window.added_mask
                drift.update(
                    labels=window.labels[added],
                    num_classes=task.num_classes,
                    graph=snap.graph,
                    edge_attr=(
                        None if window.edge_attr is None else window.edge_attr[added]
                    ),
                )
            scorer.score(task.pairs[:8])
        mem_mark("stream")

    leaf_totals = registry.leaf_totals()
    leaf_counts = registry.leaf_counts()
    snapshot = registry.snapshot()
    if track_memory:
        tracemalloc.stop()
    return {
        "workload": {
            "dataset": dataset,
            "scale": scale,
            "num_targets": num_targets,
            "epochs": epochs,
            "batch_size": batch_size,
            "seed": seed,
            "shards": shards,
            "processes": processes,
            "num_links": int(task.num_links),
            "num_nodes": int(task.graph.num_nodes),
            "graph_dir": graph_dir,
            "graph_source": graph_source,
            "checkpoint_dir": checkpoint_dir,
        },
        "cores": {"physical": os.cpu_count() or 1, "usable": usable},
        "warnings": warnings,
        "total_s": time.perf_counter() - t_start,
        "phases": {
            name: {"seconds": leaf_totals[name], "calls": leaf_counts.get(name, 0)}
            for name in sorted(leaf_totals, key=leaf_totals.get, reverse=True)
        },
        "train": {
            "phase_seconds": train_result.phase_seconds,
            "final_loss": train_result.final_loss,
            "final_auc": train_result.final_auc,
        },
        "eval": eval_result.summary(),
        "cache": ds.cache_info()._asdict(),
        "dtype": {
            "compute_dtype": str(policy),
            "master_weights": policy != nn_dtype.FLOAT64,
        },
        "memory": {
            "tracked": track_memory,
            # ru_maxrss is KiB on Linux: lifetime peak resident set of the
            # whole process (both dtype policies of a back-to-back
            # comparison must therefore run in separate processes).
            "peak_rss_bytes": float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            * 1024.0,
            "phases": mem_phases,
        },
        "metrics": metric_sections(snapshot),
        "snapshot": snapshot,
    }


def metric_sections(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """A registry snapshot's metrics grouped by the first dotted segment of their names.

    Counters and gauges map to their value and histograms to their
    summary, each under its full name. Every ``<stem>.hits`` /
    ``<stem>.misses`` counter pair adds ``<stem>.hit_rate`` (0.0 before
    the first lookup).
    """
    sections: Dict[str, Dict[str, Any]] = {}
    for kind in ("counters", "gauges", "histograms"):
        for name, value in snapshot[kind].items():
            sections.setdefault(name.split(".", 1)[0], {})[name] = value
    counters = snapshot["counters"]
    for name in counters:
        stem, _, last = name.rpartition(".")
        if last not in ("hits", "misses"):
            continue
        hits = counters.get(f"{stem}.hits", 0.0)
        lookups = hits + counters.get(f"{stem}.misses", 0.0)
        sections[name.split(".", 1)[0]][f"{stem}.hit_rate"] = (
            hits / lookups if lookups else 0.0
        )
    return sections


def add_arguments(parser) -> None:
    add_dataset(parser, "primekg")
    add_scale(parser, 0.2)
    add_targets(parser, 80)
    parser.add_argument(
        "--epochs", type=number_at_least(int, 1), default=2, help="training epochs"
    )
    parser.add_argument(
        "--batch-size", type=number_at_least(int, 1), default=16, help="training batch size"
    )
    add_seed(parser)
    parser.add_argument(
        "--shards",
        type=number_at_least(int, 0),
        default=0,
        help="train data-parallel over K graph shards (K >= 2; K worker "
        "processes on multi-core hosts, in-process otherwise — results "
        "are identical either way)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (tiny dataset, one epoch); overrides the size flags",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        type=directory,
        default=None,
        help="write epoch checkpoints under DIR (crash-safe training leg)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume training from the latest checkpoint in --checkpoint-dir",
    )
    parser.add_argument(
        "--graph-dir",
        metavar="DIR",
        type=directory,
        default=None,
        help="run against the saved task in DIR (mmap-backed); generates and "
        "saves it there on first use instead of regenerating every run",
    )
    parser.add_argument(
        "--compute-dtype",
        choices=("float64", "float32"),
        default="float64",
        help="precision policy for the training/eval/serve legs "
        "(float32 = reduced tape with float64 master weights)",
    )
    parser.add_argument(
        "--mem",
        dest="track_memory",
        action="store_true",
        help="trace Python allocations per leg with tracemalloc (slower); "
        "peak RSS is reported either way",
    )
    add_json(parser)
    parser.add_argument(
        "--csv", metavar="PATH", help="also write the metrics snapshot as CSV to PATH"
    )


def run(args) -> int:
    if args.shards == 1:
        raise argparse.ArgumentError(None, "argument --shards: must be 0 (off) or >= 2, got 1")
    if args.resume and args.checkpoint_dir is None:
        raise argparse.ArgumentError(None, "argument --resume: needs --checkpoint-dir")

    # Every other flag's dest is a run_profile keyword.
    kwargs: Dict[str, Any] = dict(vars(args))
    smoke, json_path, csv_path = (kwargs.pop(flag) for flag in ("smoke", "json", "csv"))
    if smoke:
        kwargs.update(scale=0.12, num_targets=40, epochs=1, batch_size=8)
    report = run_profile(**kwargs)

    for warning in report["warnings"]:
        print(f"repro profile: WARNING — {warning}", file=sys.stderr)
    if csv_path:
        from repro.obs.export import write_csv

        write_csv(report["snapshot"], csv_path)
    write_report(report, json_path)
    return 0
