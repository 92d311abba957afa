"""``python -m repro profile`` — end-to-end phase-time breakdown.

Runs a small but complete SEAL workload (dataset generation → subgraph
extraction → training with per-epoch evaluation → inference) under
:class:`repro.obs.capture` and prints where the time went:

.. code-block:: bash

    python -m repro profile --smoke            # CI-sized, ~seconds
    python -m repro profile --dataset wordnet --scale 0.3 --epochs 4
    python -m repro profile --smoke --workers 2   # parallel extraction
    python -m repro profile --smoke --shards 4    # sharded data-parallel
    python -m repro profile --smoke --csv out.csv --json out.json

The JSON report's ``phases`` section is the per-leaf breakdown
(``extraction`` / ``collate`` / ``forward`` / ``backward`` /
``optimizer`` / ``eval`` / ``inference``), aggregated across nesting;
``loader`` isolates the data-loading phases (``extraction`` /
``collate`` / ``queue-wait`` — the last one is the parent blocking on
worker results when ``--workers N`` is set); ``cache`` is the
:meth:`SEALDataset.cache_info` view proving the second epoch onward is
extraction-free; ``kernels`` reports the segment-plan engine — plans
built, plan-cache hit rates (per-batch and store-level) and per-kernel
timers; ``extraction`` reports the batched extraction engine — per-stage
timers (BFS sweep / induce / label / pack), links extracted and the
subgraph-store warm-hit rate;
``serve`` reports the deployment leg (the workload ends by serving a
few coalesced requests through :mod:`repro.serve`) — request/pair
counts, p50/p99 scoring latency, micro-batch occupancy, queue peak
depth and score-cache hit rate; ``stream`` reports the temporal-KG leg
(:mod:`repro.stream`) — events applied, snapshots, live edges,
delta-aware invalidation counts (retired vs surviving vs rewarmed
pairs) and the drift-metric summary;
``checkpoint`` reports the crash-safety
leg when ``--checkpoint-dir`` is set — bundle writes, bytes, write-time
stats and (with ``--resume``) the epoch the run resumed from; ``store``
reports the zero-copy storage layer (:mod:`repro.store`) — mmap vs full
graph opens, links extracted off mapped pages, shared-memory ring
batches/fallbacks/occupancy and whether workers got the graph by path
or by pickle.

With ``--shards K`` (K >= 2) the training leg runs through
:func:`repro.distributed.train_data_parallel`: the graph is partitioned
into K shards and trained data-parallel — with K worker processes when
the host has >= 2 usable cores, in-process otherwise (numerically
identical either way) — and the report gains a ``distributed`` section
(partition cut/halo stats, per-shard step timers, barrier wait times,
global step count). With real worker processes the forward/backward
work happens inside the workers, so ``phases`` reflects the parent
(reduce + optimizer) and the per-shard gradient time shows up as
``distributed.shard_step_seconds`` instead. The ``cores`` section reports physical vs usable
CPU cores, and ``warnings`` lists any requested parallelism
(``--workers`` / ``--shards``) the host cannot actually deliver.

With ``--graph-dir DIR`` the workload runs against a saved on-disk task:
the first run generates the synthetic dataset and saves it under DIR
(:func:`repro.store.save_task`), reruns mmap it back instead of
regenerating — which exercises the whole mmap read path end to end and
makes repeated profiles of large graphs start in milliseconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, Optional, Sequence

__all__ = ["run_profile", "main"]

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
    num_workers: int = 0,
    shards: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    graph_dir: Optional[str] = None,
    compute_dtype: str = "float64",
    track_memory: bool = False,
) -> Dict[str, Any]:
    """Run the instrumented workload; return the JSON-ready report dict.

    With ``checkpoint_dir`` the training leg runs crash-safe (epoch
    bundles written under that directory, resumed on rerun when
    ``resume``) and the report gains a ``checkpoint`` section.

    With ``graph_dir`` the dataset leg reads a saved task from that
    directory (mmap-backed) when one exists, and otherwise generates the
    synthetic dataset once and saves it there for the next run.

    With ``shards`` >= 2 the training leg runs sharded data-parallel
    through :func:`repro.distributed.train_data_parallel` — as K worker
    processes when >= 2 usable cores are available, in-process (same
    numbers, no speedup) otherwise.

    ``compute_dtype`` selects the precision policy for training, eval
    and serving; the report's ``dtype`` section shows the active policy
    and whether float64 master weights are kept. With ``track_memory`` the
    workload runs under :mod:`tracemalloc` and the ``memory`` section
    adds per-leg Python allocation peaks (slower; the peak-RSS line is
    reported regardless).
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

    ckpt = (
        CheckpointConfig(dir=checkpoint_dir, every=1, resume=resume)
        if checkpoint_dir is not None
        else None
    )

    physical_cores = os.cpu_count() or 1
    usable = usable_cores()
    warnings: list = []
    if num_workers > usable:
        warnings.append(
            f"--workers {num_workers} exceeds the {usable} usable core(s) "
            "on this host; workers will time-slice, not parallelize"
        )
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
        if shards >= 2:
            from repro.distributed import DistributedConfig, train_data_parallel

            train_result = train_data_parallel(
                model,
                ds,
                tr,
                DistributedConfig(
                    epochs=epochs,
                    batch_size=batch_size,
                    lr=3e-3,
                    num_workers=num_workers,
                    num_shards=shards,
                    processes=processes,
                    compute_dtype=compute_dtype,
                ),
                eval_indices=te,
                rng=derive(seed, "train"),
                verbose=False,
                checkpoint=ckpt,
            )
        else:
            train_result = train(
                model,
                ds,
                tr,
                TrainConfig(
                    epochs=epochs,
                    batch_size=batch_size,
                    lr=3e-3,
                    num_workers=num_workers,
                    compute_dtype=compute_dtype,
                ),
                eval_indices=te,
                rng=derive(seed, "train"),
                verbose=False,
                checkpoint=ckpt,
            )
        mem_mark("train")
        with nn_dtype.compute_dtype(policy):
            eval_result = evaluate(model, ds, te, num_workers=num_workers)
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

        t_stream = time.perf_counter()
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
        stream_s = time.perf_counter() - t_stream
        serve_store_info = scorer.store.cache_info()
        mem_mark("stream")
        cache = ds.cache_info()
        store_info = ds.store.cache_info()

    leaf_totals = registry.leaf_totals()
    leaf_counts = registry.leaf_counts()
    counters = dict(registry.counters)
    plan_hits = counters.get("kernels.plan_cache.hits", 0.0)
    plan_misses = counters.get("kernels.plan_cache.misses", 0.0)
    plan_lookups = plan_hits + plan_misses
    # Store-level plan-cache hit rate comes from the dataset store's
    # *lifetime* StoreInfo counters — the per-generation pair resets on
    # every clear()/evict() (serve invalidation does both), which made
    # the old rate go backwards mid-run. The registry counters below
    # aggregate every store in the process and stay monotone too.
    store_hits = float(store_info.lifetime_plan_hits)
    store_misses = float(store_info.lifetime_plan_misses)
    store_lookups = store_hits + store_misses
    kernels_report = {
        "plans_built": counters.get("kernels.plan.built", 0.0),
        "plan_cache": {
            "hits": plan_hits,
            "misses": plan_misses,
            "hit_rate": plan_hits / plan_lookups if plan_lookups else 0.0,
        },
        "store_plan_cache": {
            "hits": store_hits,
            "misses": store_misses,
            "hit_rate": store_hits / store_lookups if store_lookups else 0.0,
        },
        "timers": {
            name: {
                "seconds": leaf_totals.get(name, 0.0),
                "calls": leaf_counts.get(name, 0),
            }
            for name in (
                "kernel.segment_sum",
                "kernel.segment_max",
                "kernel.segment_softmax",
            )
        },
    }
    warm_hits = counters.get("seal.cache.hits", 0.0)
    warm_misses = counters.get("seal.cache.misses", 0.0)
    warm_lookups = warm_hits + warm_misses
    extraction_report = {
        "links": {"batched": counters.get("extraction.batched.links", 0.0)},
        "store_warm": {
            "hits": warm_hits,
            "misses": warm_misses,
            "hit_rate": warm_hits / warm_lookups if warm_lookups else 0.0,
        },
        "timers": {
            name: {
                "seconds": leaf_totals.get(name, 0.0),
                "calls": leaf_counts.get(name, 0),
            }
            for name in (
                "extract.bfs",
                "extract.induce",
                "extract.label",
                "extract.pack",
            )
        },
    }
    serve_hits = counters.get("serve.cache.hits", 0.0)
    serve_misses = counters.get("serve.cache.misses", 0.0)
    serve_lookups = serve_hits + serve_misses
    lat_hist = registry.histograms.get("serve.latency_seconds")
    occ_hist = registry.histograms.get("serve.batch.occupancy")
    serve_report = {
        "requests": counters.get("serve.requests", 0.0),
        "pairs": counters.get("serve.pairs", 0.0),
        "batches": counters.get("serve.batches", 0.0),
        "rejected": counters.get("serve.rejected", 0.0),
        "deadline_dropped": counters.get("serve.deadline.dropped", 0.0),
        "latency_ms": {
            "p50": lat_hist.percentile(50.0) * 1e3 if lat_hist else 0.0,
            "p99": lat_hist.percentile(99.0) * 1e3 if lat_hist else 0.0,
            "count": lat_hist.count if lat_hist else 0,
        },
        "batch_occupancy_mean": occ_hist.mean if occ_hist else 0.0,
        "queue_peak_depth": registry.gauges.get("serve.queue.peak_depth", 0.0),
        "score_cache": {
            "hits": serve_hits,
            "misses": serve_misses,
            "hit_rate": serve_hits / serve_lookups if serve_lookups else 0.0,
        },
        "subgraph_store": {
            "generation": serve_store_info.generation,
            "entries": serve_store_info.entries,
            "lifetime_plan_hits": float(serve_store_info.lifetime_plan_hits),
            "lifetime_plan_misses": float(serve_store_info.lifetime_plan_misses),
        },
    }
    stream_report = {
        "seconds": stream_s,
        "events": {
            "generated": counters.get("stream.events.generated", 0.0),
            "add": counters.get("stream.events.add", 0.0),
            "invalidate": counters.get("stream.events.invalidate", 0.0),
            "unmatched_invalidate": counters.get(
                "stream.events.unmatched_invalidate", 0.0
            ),
        },
        "snapshots": counters.get("stream.snapshots", 0.0),
        "graph": stream_graph.stats(),
        "invalidation": {
            "full_clears": counters.get("serve.cache.invalidations", 0.0),
            "delta": counters.get("serve.cache.delta_invalidations", 0.0),
            "retired_pairs": counters.get("serve.cache.retired_pairs", 0.0),
            "survivor_pairs": counters.get("serve.cache.survivor_pairs", 0.0),
            "rewarmed_pairs": counters.get("serve.cache.rewarmed_pairs", 0.0),
        },
        "drift": drift.summary(),
    }
    ring_occ = registry.histograms.get("store.ring.occupancy")
    store_report = {
        "graph_source": graph_source,
        "graph_dir": graph_dir,
        "mmap_opens": counters.get("store.mmap.opens", 0.0),
        "full_opens": counters.get("store.full.opens", 0.0),
        "graph_saves": counters.get("store.graph.saves", 0.0),
        "mmap_extracted_links": counters.get("store.mmap.extracted_links", 0.0),
        "ring": {
            "batches": counters.get("store.ring.batches", 0.0),
            "fallbacks": counters.get("store.ring.fallbacks", 0.0),
            "exhausted": counters.get("store.ring.exhausted", 0.0),
            "occupancy_mean": ring_occ.mean if ring_occ else 0.0,
        },
        "worker_payload": {
            "by_path": counters.get("data.loader.payload_path", 0.0),
            "pickled": counters.get("data.loader.payload_pickled", 0.0),
        },
    }
    barrier_hist = registry.histograms.get("distributed.barrier_wait_seconds")
    shard_step_hist = registry.histograms.get("distributed.shard.step_seconds")
    distributed_report = {
        "enabled": shards >= 2,
        "num_shards": shards,
        "processes": processes,
        "partition": {
            "cut_edges": counters.get("distributed.partition.cut_edges", 0.0),
            "halo_nodes": counters.get("distributed.partition.halo_nodes", 0.0),
            "owned_links": counters.get("distributed.partition.owned_links", 0.0),
            "replication_factor": registry.gauges.get(
                "distributed.partition.replication_factor", 0.0
            ),
        },
        "steps": counters.get("distributed.steps", 0.0),
        "shard_links": counters.get("distributed.shard.links", 0.0),
        "barrier_wait_seconds": {
            "total": barrier_hist.total if barrier_hist else 0.0,
            "mean": barrier_hist.mean if barrier_hist else 0.0,
            "max": barrier_hist.max if barrier_hist else 0.0,
            "count": barrier_hist.count if barrier_hist else 0,
        },
        "shard_step_seconds": {
            "mean": shard_step_hist.mean if shard_step_hist else 0.0,
            "max": shard_step_hist.max if shard_step_hist else 0.0,
            "count": shard_step_hist.count if shard_step_hist else 0,
        },
    }
    dtype_report = {
        "compute_dtype": str(policy),
        "master_weights": policy != nn_dtype.FLOAT64,
    }
    if track_memory:
        tracemalloc.stop()
    memory_report = {
        "tracked": track_memory,
        # ru_maxrss is KiB on Linux: lifetime peak resident set of the
        # whole process (both dtype policies of a back-to-back comparison
        # must therefore run in separate processes).
        "peak_rss_bytes": float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024.0,
        "phases": mem_phases,
    }
    write_hist = registry.histograms.get("checkpoint.write_seconds")
    checkpoint_report = {
        "enabled": ckpt is not None,
        "dir": str(ckpt.dir) if ckpt is not None else None,
        "writes": counters.get("checkpoint.writes", 0.0),
        "bytes": counters.get("checkpoint.bytes", 0.0),
        "resumes": counters.get("checkpoint.resumes", 0.0),
        "resumed_from_epoch": registry.gauges.get("checkpoint.resumed_from_epoch"),
        "write_seconds": {
            "total": write_hist.total if write_hist else 0.0,
            "mean": write_hist.mean if write_hist else 0.0,
            "max": write_hist.max if write_hist else 0.0,
            "count": write_hist.count if write_hist else 0,
        },
    }
    return {
        "workload": {
            "dataset": dataset,
            "scale": scale,
            "num_targets": num_targets,
            "epochs": epochs,
            "batch_size": batch_size,
            "seed": seed,
            "num_workers": num_workers,
            "shards": shards,
            "num_links": int(task.num_links),
            "num_nodes": int(task.graph.num_nodes),
            "graph_dir": graph_dir,
        },
        "cores": {"physical": physical_cores, "usable": usable},
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
        "loader": {
            name: {"seconds": leaf_totals.get(name, 0.0), "calls": leaf_counts.get(name, 0)}
            for name in ("extraction", "collate", "queue-wait")
        },
        "cache": cache._asdict(),
        "kernels": kernels_report,
        "extraction": extraction_report,
        "serve": serve_report,
        "stream": stream_report,
        "store": store_report,
        "distributed": distributed_report,
        "checkpoint": checkpoint_report,
        "dtype": dtype_report,
        "memory": memory_report,
        "counters": counters,
        "snapshot": registry.snapshot(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.datasets import dataset_names
    from repro.utils.cli import number_at_least

    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Profile a small end-to-end SEAL workload and emit a "
        "phase-time breakdown as JSON.",
    )
    parser.add_argument(
        "--dataset", default="primekg", choices=dataset_names(), help="dataset loader name"
    )
    parser.add_argument(
        "--scale",
        type=number_at_least(float, 0.0, strict=True),
        default=0.2,
        help="node-count multiplier",
    )
    parser.add_argument(
        "--targets", type=number_at_least(int, 1), default=80, help="number of labeled links"
    )
    parser.add_argument(
        "--epochs", type=number_at_least(int, 1), default=2, help="training epochs"
    )
    parser.add_argument(
        "--batch-size", type=number_at_least(int, 1), default=16, help="training batch size"
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--workers",
        type=number_at_least(int, 0),
        default=0,
        help="extraction worker processes (0 = serial; results are identical)",
    )
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
        action="store_true",
        help="trace Python allocations per leg with tracemalloc (slower); "
        "peak RSS is reported either way",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the report to PATH")
    parser.add_argument(
        "--csv", metavar="PATH", help="also write the metrics snapshot as CSV to PATH"
    )
    args = parser.parse_args(argv)
    if args.shards == 1:
        parser.error("argument --shards: must be 0 (off) or >= 2, got 1")
    if args.resume and args.checkpoint_dir is None:
        parser.error("argument --resume: needs --checkpoint-dir")

    kwargs: Dict[str, Any] = dict(
        dataset=args.dataset,
        scale=args.scale,
        num_targets=args.targets,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        num_workers=args.workers,
        shards=args.shards,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        graph_dir=args.graph_dir,
        compute_dtype=args.compute_dtype,
        track_memory=args.mem,
    )
    if args.smoke:
        kwargs.update(scale=0.12, num_targets=40, epochs=1, batch_size=8)

    report = run_profile(**kwargs)

    for warning in report["warnings"]:
        print(f"repro profile: WARNING — {warning}", file=sys.stderr)

    if args.csv:
        from repro.obs.export import write_csv

        write_csv(report["snapshot"], args.csv)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
