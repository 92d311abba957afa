"""ScoringServer: coalescing, admission control, deadlines, shutdown."""

import dataclasses
import time

import numpy as np
import pytest

import repro.obs as obs
import repro.serve.server as server_module
from repro.datasets import load_primekg_like
from repro.models import AMDGCNN
from repro.serve import LinkScorer, ModelBundle, ScoringServer, ServeConfig


@pytest.fixture(scope="module")
def task():
    return load_primekg_like(scale=0.12, num_targets=40, rng=0)


@pytest.fixture(scope="module")
def bundle(task):
    model = AMDGCNN(
        task.feature_config.width, task.num_classes, edge_dim=task.edge_attr_dim,
        heads=2, hidden_dim=16, num_conv_layers=2, sort_k=10, rng=1,
    )
    return ModelBundle.from_model(model, task, extraction_seed=7)


def scorer_for(bundle, task, **kw):
    kw.setdefault("micro_batch", 8)
    return LinkScorer(bundle, task.graph, **kw)


class TestCoalescing:
    def test_coalesced_bit_identical_to_serial(self, bundle, task):
        """Queued requests merge into one scoring call; every row matches
        a fresh scorer answering the same requests one at a time."""
        chunks = [task.pairs[lo : lo + 3] for lo in range(0, 12, 3)]

        server = ScoringServer(scorer_for(bundle, task))
        # Submit before start so all four requests are queued together —
        # the worker must coalesce them into a single batch.
        futures = [server.submit(c, request_id=f"r{i}") for i, c in enumerate(chunks)]
        with obs.capture() as reg:
            with server:
                outcomes = [f.result(timeout=30) for f in futures]

        serial = scorer_for(bundle, task)
        for i, (chunk, outcome) in enumerate(zip(chunks, outcomes)):
            assert outcome.ok
            assert outcome.request_id == f"r{i}"
            np.testing.assert_array_equal(outcome.probs, serial.score(chunk).probs)
        assert reg.counters["serve.batches"] == 1.0
        assert reg.histograms["serve.batch.requests"].max == 4.0

    def test_pair_budget_splits_batches(self, bundle, task, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_BATCH_PAIRS", 4)
        monkeypatch.setattr(server_module, "BATCH_WINDOW_S", 0.0)
        server = ScoringServer(scorer_for(bundle, task))
        futures = [server.submit(task.pairs[lo : lo + 3]) for lo in (0, 3, 6)]
        with obs.capture() as reg:
            with server:
                assert all(f.result(timeout=30).ok for f in futures)
        # 3 pairs fit the 4-pair budget; the next request overflows it.
        assert reg.counters["serve.batches"] >= 2.0

    def test_blocking_request_and_cache_metadata(self, bundle, task):
        with ScoringServer(scorer_for(bundle, task)) as server:
            first = server.request(task.pairs[:2], timeout=30)
            again = server.request(task.pairs[:2], timeout=30)
        assert first.ok and again.ok
        assert not first.cached.any()
        assert again.cached.all()
        np.testing.assert_array_equal(first.probs, again.probs)


class TestAdmissionControl:
    def test_queue_full_sheds_typed(self, bundle, task):
        config = ServeConfig(max_queue_depth=2)
        server = ScoringServer(scorer_for(bundle, task), config)
        # Worker not started: the queue cannot drain.
        kept = [server.submit(task.pairs[:1]) for _ in range(2)]
        with obs.capture() as reg:
            shed = server.submit(task.pairs[:1], request_id="overflow")
        outcome = shed.result(timeout=1)
        assert not outcome.ok
        assert outcome.reason == "queue_full"
        assert outcome.request_id == "overflow"
        assert reg.counters["serve.rejected"] == 1.0
        assert len(server._queue) == 2
        server.stop()
        for f in kept:  # flushed on shutdown, never silently dropped
            assert f.result(timeout=1).reason == "shutdown"

    def test_expired_deadline_dropped_before_extraction(self, bundle, task):
        scorer = scorer_for(bundle, task)
        server = ScoringServer(scorer, ServeConfig(default_deadline_s=-1.0))
        expired = server.submit(task.pairs[:2], request_id="late")
        # The budget is read at submit: the next request gets a live one.
        server.config = dataclasses.replace(server.config, default_deadline_s=60.0)
        live = server.submit(task.pairs[2:4], request_id="ok")
        with obs.capture() as reg:
            with server:
                dropped = expired.result(timeout=30)
                served = live.result(timeout=30)
        assert not dropped.ok
        assert dropped.reason == "deadline"
        assert dropped.request_id == "late"
        assert served.ok
        # The expired request's pairs never reached the extractor.
        assert len(scorer.store) == 2
        assert reg.counters["serve.deadline.dropped"] == 1.0

    def test_default_deadline_from_config(self, bundle, task):
        config = ServeConfig(default_deadline_s=-1.0)
        server = ScoringServer(scorer_for(bundle, task), config)
        future = server.submit(task.pairs[:1])
        with server:
            assert future.result(timeout=30).reason == "deadline"

    def test_submit_after_stop_raises(self, bundle, task):
        server = ScoringServer(scorer_for(bundle, task))
        server.start()
        server.stop()
        with pytest.raises(RuntimeError):
            server.submit(task.pairs[:1])

    def test_stop_without_drain_rejects_backlog(self, bundle, task):
        server = ScoringServer(scorer_for(bundle, task))
        future = server.submit(task.pairs[:2], request_id="queued")
        server.stop(drain=False)
        outcome = future.result(timeout=1)
        assert not outcome.ok
        assert outcome.reason == "shutdown"
        assert outcome.request_id == "queued"


class TestInvalidationUnderServer:
    def test_graph_version_bump_forces_rescore(self, bundle, task):
        scorer = scorer_for(bundle, task)
        with ScoringServer(scorer) as server:
            warm = server.request(task.pairs[:3], timeout=30)
            v = scorer.invalidate()
            cold = server.request(task.pairs[:3], timeout=30)
        assert scorer.cache_info()["graph_version"] == v
        assert warm.ok and cold.ok
        assert not cold.cached.any()
        np.testing.assert_array_equal(warm.probs, cold.probs)


class TestBatchWindow:
    """The linger window waits on the condition variable, not a sleep."""

    def test_stop_interrupts_a_long_window(self, bundle, task, monkeypatch):
        """A huge batch window must not delay shutdown: stop() notifies
        the condition variable and the worker drains immediately."""
        monkeypatch.setattr(server_module, "BATCH_WINDOW_S", 60.0)
        server = ScoringServer(scorer_for(bundle, task)).start()
        future = server.submit(task.pairs[:2], request_id="r")
        t0 = time.monotonic()
        server.stop()  # must not wait out the 60 s window
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        outcome = future.result(timeout=1)
        assert outcome.ok and outcome.request_id == "r"

    def test_full_pair_budget_ends_the_window_early(self, bundle, task, monkeypatch):
        """Once queued pairs reach MAX_BATCH_PAIRS the worker stops
        lingering — submitters are not held for the rest of the window."""
        monkeypatch.setattr(server_module, "MAX_BATCH_PAIRS", 4)
        monkeypatch.setattr(server_module, "BATCH_WINDOW_S", 60.0)
        server = ScoringServer(scorer_for(bundle, task))
        futures = [server.submit(task.pairs[lo : lo + 2]) for lo in (0, 2)]
        with server:
            t0 = time.monotonic()
            outcomes = [f.result(timeout=30) for f in futures]
            elapsed = time.monotonic() - t0
        assert all(o.ok for o in outcomes)
        assert elapsed < 30.0

    def test_closing_server_skips_the_window_when_draining(self, bundle, task, monkeypatch):
        monkeypatch.setattr(server_module, "BATCH_WINDOW_S", 60.0)
        server = ScoringServer(scorer_for(bundle, task))
        future = server.submit(task.pairs[:2])
        # start() after stop-worthy backlog: enter and exit immediately;
        # the drain pass must not linger per batch.
        t0 = time.monotonic()
        with server:
            server.stop()
            assert future.result(timeout=30).ok
        assert time.monotonic() - t0 < 30.0


class TestTracingAcrossThreads:
    def test_server_phases_do_not_nest_under_caller_phases(self, bundle, task):
        """The worker thread's phases nest only under its own phases, not
        under a phase the submitting thread holds open meanwhile."""
        with obs.capture() as reg:
            with ScoringServer(scorer_for(bundle, task)) as server:
                with obs.trace("train"):
                    outcome = server.request(task.pairs[:4], timeout=30)
        assert outcome.ok
        assert reg.phase_counts["inference"] >= 1
        nested = [key for key in reg.phase_totals if key.startswith("train/")]
        assert nested == []
