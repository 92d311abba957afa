"""Data-parallel training throughput: K shard workers vs one process.

Times one epoch of AM-DGCNN training on a PrimeKG-like task through
:func:`repro.distributed.train_data_parallel` — the single-process
reference (``num_shards=1, processes=0``) against K worker processes
each training its own graph shard (``num_shards=K, processes=K``) —
and appends the measurement to ``results/BENCH_distributed.json``.
The two configurations produce numerically equivalent models (that is
the trainer's contract, pinned by ``tests/distributed``), so the only
thing this benchmark varies is wall-clock throughput.

Hardware policy (same as ``test_microbench_store.py``): K processes on
a single usable core can only time-slice it and pay barrier + IPC
overhead, so no ``data_parallel_epoch`` record is written there — the
envelope still lands in the history with its ``usable_cores`` stamp so
``scripts/check_bench.py --suite distributed`` can tell "legitimately
skipped" from "never ran". On multi-core hosts the acceptance bar is a
>= 1.5x epoch-throughput speedup at K=4.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.data.loader import usable_cores
from repro.datasets import load_primekg_like
from repro.distributed import (
    DistributedConfig,
    partition_graph,
    train_data_parallel,
)
from repro.models import AMDGCNN
from repro.seal.dataset import SEALDataset, train_test_split_indices

from bench_utils import append_run

RESULTS = (
    Path(__file__).resolve().parent.parent / "results" / "BENCH_distributed.json"
)
NUM_SHARDS = 4
EPOCHS = 2
BATCH_SIZE = 16


def make_task():
    # Sized so the per-shard gradient work dominates the one-time worker
    # spawn + partition cost — the regime data-parallel training exists
    # for; a K=4 run on >= 4 real cores clears 1.5x with headroom.
    return load_primekg_like(scale=0.3, num_targets=480, rng=0)


def make_model(task):
    return AMDGCNN(
        task.feature_config.width,
        task.num_classes,
        edge_dim=task.edge_attr_dim,
        heads=2,
        hidden_dim=16,
        num_conv_layers=2,
        sort_k=10,
        dropout=0.0,  # the data-parallel contract needs a deterministic forward
        rng=1,
    )


def time_epoch(task, train_indices, *, num_shards, processes, partition=None):
    """Wall time of a fresh EPOCHS-epoch run at the given parallelism."""
    config = DistributedConfig(
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        lr=3e-3,
        num_shards=num_shards,
        processes=processes,
    )
    model = make_model(task)
    dataset = SEALDataset(task, rng=0)
    t0 = time.perf_counter()
    result = train_data_parallel(
        model,
        dataset,
        train_indices,
        config,
        partition=partition,
        rng=5,
        verbose=False,
    )
    elapsed = time.perf_counter() - t0
    assert result.epochs_run == EPOCHS
    assert np.isfinite(result.losses).all()
    return elapsed


def test_data_parallel_epoch_throughput():
    cores = usable_cores()
    task = make_task()
    train_indices, _ = train_test_split_indices(task.num_links, 0.3, rng=1)
    part = partition_graph(task, NUM_SHARDS, seed=0)

    serial_s = time_epoch(task, train_indices, num_shards=1, processes=0)

    records: List[Dict] = []
    if cores >= 2:
        parallel_s = time_epoch(
            task,
            train_indices,
            num_shards=NUM_SHARDS,
            processes=NUM_SHARDS,
            partition=part,
        )
        speedup = serial_s / parallel_s
        stats = part.stats()
        records.append(
            {
                "kernel": "data_parallel_epoch",
                "num_shards": NUM_SHARDS,
                "processes": NUM_SHARDS,
                "num_links": int(train_indices.size),
                "epochs": EPOCHS,
                "cut_edges": stats["cut_edges"],
                "replication_factor": stats["replication_factor"],
                "baseline_s": round(serial_s, 4),
                "parallel_s": round(parallel_s, 4),
                "speedup": round(speedup, 3),
                "links_per_s_serial": round(
                    EPOCHS * train_indices.size / serial_s, 1
                ),
                "links_per_s_parallel": round(
                    EPOCHS * train_indices.size / parallel_s, 1
                ),
            }
        )
    else:
        # One core: K workers measure the scheduler, not the trainer.
        # Bound the in-process sharding overhead instead (no record).
        parallel_s = time_epoch(
            task,
            train_indices,
            num_shards=NUM_SHARDS,
            processes=0,
            partition=part,
        )
        speedup = serial_s / parallel_s

    append_run(RESULTS, records, benchmark="distributed")

    mode = f"{NUM_SHARDS} procs" if cores >= 2 else f"{NUM_SHARDS} shards in-proc"
    print(
        f"\ndata_parallel_epoch ({cores} core(s)): serial {serial_s:.2f}s, "
        f"{mode} {parallel_s:.2f}s  ({speedup:.2f}x)"
    )

    if cores >= 2:
        assert speedup >= 1.5, (
            f"K={NUM_SHARDS} epoch throughput below the 1.5x acceptance "
            f"bar: {speedup:.2f}x ({serial_s:.2f}s -> {parallel_s:.2f}s)"
        )
    else:
        # In-process sharding repeats the batch grouping K times but
        # shares one interpreter — it must stay near the reference.
        assert parallel_s <= serial_s * 2.0 + 1.0, (
            f"in-process sharding overhead too high: "
            f"{parallel_s:.2f}s vs {serial_s:.2f}s"
        )
