"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Covers the tracer's self-time arithmetic, that tracing leaves no wrapper
behind, that a tiny run of each workload emits exactly the metrics
``BENCHMARK.json`` declares, that the output checks catch a wrong
score or accuracy, and that ``compare.py`` pairs runs by seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import run
import workloads
from trace import Span, Tracer, iter_targets, self_times

HERE = Path(__file__).resolve().parent
SECONDS = 1.0
GRAPH_TINY = workloads.Size(scale=1.0, setup_repeats=2, candidates=400, hot=32, working_set=64)
TINY = {
    "table3-primekg": workloads.Size(
        scale=0.12, num_targets=40, epochs=1, setup_repeats=2, accuracy_slack=1.0
    ),
    "score-cold": GRAPH_TINY,
    "serve-zipf": GRAPH_TINY,
    "stream-churn": GRAPH_TINY,
}


def tiny_run(name: str, trace: bool = False, corrupt=None) -> dict:
    return workloads.execute(name, 0, SECONDS, trace, size=TINY[name], corrupt=corrupt)


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #
def test_self_time_subtracts_child_coverage():
    spans = [
        Span("outer", 0.0, 10.0, -1, 1, 0),
        Span("a", 1.0, 4.0, 0, 1, 0),
        Span("leaf", 2.0, 3.0, 1, 1, 0),
        Span("b", 3.5, 6.0, 0, 1, 0),  # overlaps a: counted once
        Span("b", 12.0, 20.0, 0, 1, 0),  # outside its parent: clipped away
    ]
    got = self_times(spans)
    assert got["outer"] == pytest.approx(10.0 - 5.0)
    assert got["a"] == pytest.approx(3.0 - 1.0)
    assert got["leaf"] == pytest.approx(1.0)
    assert got["b"] == pytest.approx(2.5 + 8.0)


def test_self_time_ignores_spans_of_other_threads():
    spans = [
        Span("caller", 0.0, 10.0, -1, 1, 0),
        Span("worker", 2.0, 8.0, -1, 2, 1),  # same interval, other thread
        Span("inner", 3.0, 4.0, 1, 2, 1),
    ]
    got = self_times(spans)
    assert got["caller"] == pytest.approx(10.0)
    assert got["worker"] == pytest.approx(5.0)


def test_threads_keep_their_own_span_stacks():
    tracer = Tracer()
    opened, release = threading.Event(), threading.Event()

    def worker():
        with tracer.span("worker"):
            opened.set()
            release.wait(5)
            with tracer.span("worker.child"):
                pass

    with tracer.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        assert opened.wait(5)
        with tracer.span("main.child"):
            release.set()
            thread.join(5)
    assert not thread.is_alive()
    by_name = {s.name: (i, s) for i, s in enumerate(tracer.spans)}
    main_i, main = by_name["main"]
    worker_i, worker_span = by_name["worker"]
    assert worker_span.parent == -1 and worker_span.thread != main.thread
    assert by_name["main.child"][1].parent == main_i
    assert by_name["worker.child"][1].parent == worker_i
    assert worker_span.unit == worker_i  # a thread without a unit groups by top span


# --------------------------------------------------------------------- #
# wrapper hygiene
# --------------------------------------------------------------------- #
def originals():
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in iter_targets()}


def test_install_instrument_restore_leaves_nothing_behind():
    from repro.experiments.config import build_model, hyperparams_for

    before = originals()
    model = build_model("am_dgcnn", 33, 3, 2, hyperparams_for("primekg", "am_dgcnn", "tuned"))
    tracer = Tracer()
    with tracer.installed():
        tracer.instrument_model(model)
        assert originals() != before
        assert "forward" in vars(model.convs[0])
    assert originals() == before
    assert all("forward" not in vars(m) for m in model.modules())


def test_wrappers_restored_after_traced_run():
    before = originals()
    record = tiny_run("stream-churn", trace=True)
    assert record["correct"]
    assert originals() == before


# --------------------------------------------------------------------- #
# metric names and output checks
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_the_declared_metrics(name, trace):
    units = run.declared_metrics(trace)
    record = tiny_run(name, trace)
    line = run.result_line(record, units)  # raises on a missing/extra/non-finite metric
    assert record["correct"], record["checks"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    # End-to-end metrics are never 0, and neither is a per-layer time.
    for key, metric in line["metrics"].items():
        if not trace or metric["unit"] == "s":
            assert metric["value"] > 0, key
    json.dumps(line)


def _nudge(probs: np.ndarray) -> None:
    probs[0, 0] += 1e-6


CORRUPT = {
    "table3-primekg": lambda m: m.evidence["auc"].__setitem__(0, float("nan")),
    "score-cold": lambda m: m.evidence["probs"].__setitem__(
        (0, 0), np.nextafter(m.evidence["probs"][0, 0], 2.0)
    ),
    "serve-zipf": lambda m: _nudge(m.evidence["sample"][0][1]),
    "stream-churn": lambda m: _nudge(m.evidence["probs"]),
}


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_corrupted_score_fails_the_check(name):
    record = tiny_run(name, corrupt=CORRUPT[name])
    assert not record["correct"]
    assert record["failed"] >= 1


@pytest.mark.parametrize("seed", [1, 21, 105])
def test_table3_accuracy_held_to_the_training_seeds_values(seed):
    wl = workloads.Table3(seed, SECONDS, workloads.Size())
    want_auc, want_ap = workloads.TABLE3_EXPECTED[seed % len(workloads.TABLE3_EXPECTED)]

    def accuracy_ok(auc, ap):
        m = SimpleNamespace(evidence={"auc": [auc], "ap": [ap]})
        return wl.check(None, None, m)[0]["ok"]

    assert accuracy_ok(want_auc + 0.004, want_ap - 0.004)
    assert not accuracy_ok(want_auc - 0.02, want_ap)
    assert not accuracy_ok(want_auc, want_ap + 0.02)


def test_compare_pairs_runs_by_seed():
    # Seeds 2 and 4 have inputs that run 20% slower on both sides: paired
    # by seed, that is no change, though it spreads each set by 20%.
    base = {1: 100.0, 2: 120.0, 3: 101.0, 4: 119.0}
    new = {1: 101.0, 2: 121.0, 3: 100.0, 4: 120.0}
    assert compare.verdict(compare.changes(base, new, "lower"), 0.05) == "within-bound"
    slower = {seed: value * 1.1 for seed, value in base.items()}
    assert compare.verdict(compare.changes(base, slower, "lower"), 0.05) == "regressed"
    assert compare.verdict(compare.changes(slower, base, "higher"), 0.05) == "regressed"


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "score-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
