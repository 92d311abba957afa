"""``python -m repro serve`` — scripted request-replay against the server.

Builds (or loads) a :class:`~repro.serve.ModelBundle`, stands up a
:class:`~repro.serve.ScoringServer` over a dataset's graph, and replays
a scripted concurrent workload: ``--clients`` threads each firing
``--requests`` queries of ``--pairs`` pairs drawn (with repetition, to
exercise the score cache) from the dataset's link table. The same
workload is then replayed one-request-per-forward against a fresh
scorer — the single-shot baseline — and the report compares the two:

.. code-block:: bash

    python -m repro serve --smoke                    # CI-sized replay
    python -m repro serve --clients 8 --requests 64
    python -m repro serve --save-bundle out/model.npz --json report.json

The two replays assert bitwise-identical probabilities pair for pair
(the scorer's composition-independence guarantee), so the printed
speedup is a like-for-like comparison of identical answers.
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.utils.cli import (
    add_dataset,
    add_json,
    add_scale,
    add_seed,
    add_targets,
    number_at_least,
    write_report,
)

__all__ = ["run_replay", "add_arguments", "run"]


def run_replay(
    *,
    dataset: str = "primekg",
    scale: float = 0.12,
    num_targets: int = 60,
    epochs: int = 1,
    seed: int = 0,
    bundle_path: Optional[str] = None,
    save_bundle: Optional[str] = None,
    clients: int = 4,
    requests_per_client: int = 8,
    pairs_per_request: int = 4,
    micro_batch: int = 16,
    max_queue_depth: int = 64,
    deadline_ms: Optional[float] = None,
) -> Dict[str, Any]:
    """Run the replay workload; returns the JSON-ready report dict."""
    from repro import obs
    from repro.datasets import load_dataset
    from repro.models import AMDGCNN
    from repro.seal import SEALDataset, TrainConfig, train, train_test_split_indices
    from repro.serve import LinkScorer, ModelBundle, ScoringServer, ServeConfig
    from repro.utils.rng import derive

    task = load_dataset(dataset, scale=scale, rng=seed, num_targets=num_targets)
    if bundle_path is not None:
        bundle = ModelBundle.load(bundle_path)
    else:
        ds = SEALDataset(task, rng=seed)
        model = AMDGCNN(
            ds.feature_width,
            task.num_classes,
            edge_dim=task.edge_attr_dim,
            heads=2,
            hidden_dim=16,
            num_conv_layers=2,
            sort_k=10,
            dropout=0.0,
            rng=derive(seed, "init"),
        )
        tr, _ = train_test_split_indices(
            task.num_links, 0.25, labels=task.labels, rng=derive(seed, "split")
        )
        train(
            model,
            ds,
            tr,
            TrainConfig(epochs=epochs, batch_size=8, lr=3e-3),
            rng=derive(seed, "train"),
            verbose=False,
        )
        bundle = ModelBundle.from_model(
            model, task, extraction_seed=seed, task_name="serve"
        )
    if save_bundle is not None:
        bundle.save(save_bundle)

    # The scripted request tape: pairs drawn with repetition so later
    # requests hit the score cache, as live traffic would.
    gen = np.random.default_rng(derive(seed, "replay").integers(0, 2**31))
    tape: List[np.ndarray] = []
    for _ in range(clients * requests_per_client):
        idx = gen.integers(0, task.num_links, size=pairs_per_request)
        tape.append(task.pairs[idx])

    deadline_s = None if deadline_ms is None else deadline_ms / 1e3

    with obs.capture() as registry:
        scorer = LinkScorer(bundle, task.graph, micro_batch=micro_batch)
        config = ServeConfig(
            max_queue_depth=max_queue_depth, default_deadline_s=deadline_s
        )
        latencies = obs.HistogramSummary()
        outcomes: List[Any] = [None] * len(tape)
        lat_lock = threading.Lock()

        def client(worker: int) -> None:
            for j in range(requests_per_client):
                slot = worker * requests_per_client + j
                t0 = time.perf_counter()
                outcome = server.request(tape[slot], request_id=f"r{slot}")
                elapsed = time.perf_counter() - t0
                with lat_lock:
                    latencies.add(elapsed)
                    outcomes[slot] = outcome

        t_serve = time.perf_counter()
        with ScoringServer(scorer, config) as server:
            threads = [
                threading.Thread(target=client, args=(w,)) for w in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        serve_wall = time.perf_counter() - t_serve
        snapshot = registry.snapshot()
        lat_hist = registry.histograms.get("serve.latency_seconds")
        occ_hist = registry.histograms.get("serve.batch.occupancy")
        served = [o for o in outcomes if o is not None and o.ok]
        rejected = [o for o in outcomes if o is not None and not o.ok]

    # Single-shot baseline: same tape, one request per scoring call on a
    # fresh scorer (cold store, no coalescing, no cross-request cache).
    base_scorer = LinkScorer(
        bundle, task.graph, micro_batch=micro_batch, cache_scores=False
    )
    base_latencies = obs.HistogramSummary()
    t_base = time.perf_counter()
    base_results = []
    for pairs in tape:
        t0 = time.perf_counter()
        base_results.append(base_scorer.score(pairs))
        base_latencies.add(time.perf_counter() - t0)
    base_wall = time.perf_counter() - t_base

    # Identical answers, bit for bit — coalescing and caching must never
    # change a probability.
    mismatches = sum(
        1
        for outcome, base in zip(outcomes, base_results)
        if outcome is not None
        and outcome.ok
        and not np.array_equal(outcome.probs, base.probs)
    )

    counters = snapshot["counters"]
    cache_hits = counters.get("serve.cache.hits", 0.0)
    cache_misses = counters.get("serve.cache.misses", 0.0)
    lookups = cache_hits + cache_misses
    return {
        "workload": {
            "dataset": dataset,
            "scale": scale,
            "num_targets": num_targets,
            "clients": clients,
            "requests": len(tape),
            "pairs_per_request": pairs_per_request,
            "micro_batch": micro_batch,
            "bundle": bundle_path or "(trained in-process)",
        },
        "serve": {
            "wall_s": serve_wall,
            "throughput_rps": len(tape) / serve_wall if serve_wall else 0.0,
            "latency_ms": {
                "p50": latencies.percentile(50) * 1e3,
                "p99": latencies.percentile(99) * 1e3,
            },
            "served": len(served),
            "rejected": len(rejected),
            "deadline_dropped": counters.get("serve.deadline.dropped", 0.0),
            "batches": counters.get("serve.batches", 0.0),
            "batch_occupancy_mean": occ_hist.mean if occ_hist else 0.0,
            "scorer_latency_p99_ms": (
                lat_hist.percentile(99) * 1e3 if lat_hist else 0.0
            ),
            "cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": cache_hits / lookups if lookups else 0.0,
            },
            "queue_peak_depth": snapshot["gauges"].get("serve.queue.peak_depth", 0.0),
        },
        "single_shot": {
            "wall_s": base_wall,
            "throughput_rps": len(tape) / base_wall if base_wall else 0.0,
            "latency_ms": {
                "p50": base_latencies.percentile(50) * 1e3,
                "p99": base_latencies.percentile(99) * 1e3,
            },
        },
        "speedup": base_wall / serve_wall if serve_wall else 0.0,
        "bitwise_mismatches": mismatches,
    }


def add_arguments(parser) -> None:
    add_dataset(parser, "primekg")
    add_scale(parser, 0.12)
    add_targets(parser, 60)
    parser.add_argument(
        "--epochs", type=number_at_least(int, 1), default=1, help="training epochs (no --bundle)"
    )
    add_seed(parser)
    parser.add_argument(
        "--bundle",
        dest="bundle_path",
        metavar="BUNDLE",
        default=None,
        help="load this ModelBundle .npz",
    )
    parser.add_argument(
        "--save-bundle", default=None, help="write the bundle used to this path"
    )
    parser.add_argument(
        "--clients", type=number_at_least(int, 1), default=4, help="concurrent client threads"
    )
    parser.add_argument(
        "--requests",
        dest="requests_per_client",
        metavar="REQUESTS",
        type=number_at_least(int, 1),
        default=8,
        help="requests per client",
    )
    parser.add_argument(
        "--pairs",
        dest="pairs_per_request",
        metavar="PAIRS",
        type=number_at_least(int, 1),
        default=4,
        help="pairs per request",
    )
    parser.add_argument(
        "--micro-batch",
        type=number_at_least(int, 1),
        default=16,
        help="at most this many rows per forward",
    )
    parser.add_argument(
        "--queue-depth",
        dest="max_queue_depth",
        metavar="QUEUE_DEPTH",
        type=number_at_least(int, 1),
        default=64,
        help="admission cap",
    )
    parser.add_argument(
        "--deadline-ms",
        type=number_at_least(float, 0.0, strict=True),
        default=None,
        help="per-request latency budget",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized replay; overrides size flags"
    )
    add_json(parser)


def run(args) -> int:
    if args.bundle_path is not None and not os.path.isfile(args.bundle_path):
        raise argparse.ArgumentError(None, f"argument --bundle: no such file: {args.bundle_path}")

    # Every other flag's dest is a run_replay keyword.
    kwargs: Dict[str, Any] = dict(vars(args))
    smoke, json_path = kwargs.pop("smoke"), kwargs.pop("json")
    if smoke:
        kwargs.update(scale=0.12, num_targets=40, clients=2, requests_per_client=4)
    report = run_replay(**kwargs)
    write_report(report, json_path)
    return 0 if report["bitwise_mismatches"] == 0 else 1
