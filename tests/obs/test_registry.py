"""MetricsRegistry: counters, gauges, histograms, phase nesting, gating."""

import itertools
import pickle
import sys
import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import HISTOGRAM_RELATIVE_ERROR, HistogramSummary, MetricsRegistry


def within_bound(got, want):
    return abs(got - want) <= HISTOGRAM_RELATIVE_ERROR * abs(want)


class TestRegistryPrimitives:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.count("hits")
        reg.count("hits", 2.0)
        assert reg.counters["hits"] == 3.0

    def test_gauge_keeps_latest(self):
        reg = MetricsRegistry()
        reg.gauge("loss", 1.5)
        reg.gauge("loss", 0.7)
        assert reg.gauges["loss"] == 0.7

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0, 4.0):
            reg.observe("lat", v)
        s = reg.histograms["lat"].summary()
        assert s["count"] == 4
        assert s["sum"] == 10.0
        assert s["min"] == 1.0
        assert s["max"] == 4.0
        assert s["mean"] == 2.5
        assert within_bound(s["p50"], 2.5)

    def test_histogram_percentile_bounds(self):
        h = HistogramSummary()
        assert h.percentile(50) == 0.0  # empty
        h.add(5.0)
        assert h.percentile(0) == 5.0
        assert h.percentile(100) == 5.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_histogram_memory_is_logarithmic(self):
        h = HistogramSummary()
        for v in range(1, 10_001):
            h.add(float(v))
        assert h.count == 10_000
        # log(10^4) / log((1 + e) / (1 - e)) buckets at e = 1%.
        assert len(h.buckets) <= 500

    def test_percentiles_cover_the_whole_run(self):
        h = HistogramSummary()
        for _ in range(512):
            h.add(0.001)
        for _ in range(9_488):
            h.add(0.1)
        assert within_bound(h.percentile(50), 0.1)
        assert h.percentile(0) == 0.001
        assert h.percentile(100) == 0.1

    def test_non_finite_values_do_not_break_the_summary(self):
        # A diverged training run observes an infinite or NaN loss.
        h = HistogramSummary()
        for v in (1.0, float("inf"), float("nan"), 2.0):
            h.add(v)
        assert h.count == 4
        assert h.percentile(100) == float("inf")
        assert within_bound(h.percentile(0), 1.0)
        assert h.summary()["count"] == 4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_percentiles_within_bound_of_numpy(self, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate(
            [rng.lognormal(-7, 2, size=3_000), -rng.lognormal(0, 1, size=200), np.zeros(50)]
        )
        h = HistogramSummary()
        for v in values:
            h.add(v)
        ordered = np.sort(values)
        for q in (1, 5, 25, 50, 75, 95, 99, 99.9):
            pos = (len(values) - 1) * q / 100.0
            lo = int(pos)
            hi = min(lo + 1, len(values) - 1)
            # Interpolating between two in-bound order statistics of one
            # sign stays in bound; straddling a sign change is exempt.
            if ordered[lo] * ordered[hi] > 0.0:
                assert within_bound(h.percentile(q), np.percentile(values, q)), q
        assert h.percentile(0) == values.min()
        assert h.percentile(100) == values.max()


class TestMerge:
    @staticmethod
    def record(reg, part):
        # Dyadic values (and dyadic clock ticks): every sum is exact in
        # any order, so merged sums must equal single-registry sums bit
        # for bit.
        rng = np.random.default_rng(part)
        for v in rng.integers(1, 4096, size=300) / 1024.0:
            reg.observe("lat", float(v))
            reg.count("links", 2.0)
        reg.observe(f"only.{part}", 1.5)
        reg.count(f"part.{part}")
        reg.gauge("depth", float(part))
        for _ in range(part + 1):
            with reg.phase("train"):
                with reg.phase("forward"):
                    pass

    def test_merge_equals_recording_into_one_registry(self, monkeypatch):
        # A clock that advances 0.25 s per read: phase seconds still go
        # through the timers, yet stay dyadic, so every sum is exact.
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: 0.25 * next(ticks))
        one = MetricsRegistry()
        self.record(one, 0)
        self.record(one, 1)
        a, b = MetricsRegistry(), MetricsRegistry()
        self.record(a, 0)
        self.record(b, 1)
        merged = MetricsRegistry()
        merged.merge(a.delta())
        merged.merge(pickle.loads(pickle.dumps(b.delta())))
        assert dict(merged.counters) == dict(one.counters)
        assert merged.gauges == one.gauges == {"depth": 1.0}
        assert dict(one.phase_totals) == {"train": 2.25, "train/forward": 0.75}
        assert dict(merged.phase_totals) == dict(one.phase_totals)
        assert dict(merged.phase_counts) == dict(one.phase_counts)
        assert merged.histograms.keys() == one.histograms.keys()
        for name, want in one.histograms.items():
            got = merged.histograms[name]
            assert (got.count, got.total, got.min, got.max) == (
                want.count, want.total, want.min, want.max
            )
            for q in (0, 10, 50, 90, 99, 100):
                assert within_bound(got.percentile(q), want.percentile(q))

    def test_summaries_merge_by_adding_buckets(self):
        a, b, both = HistogramSummary(), HistogramSummary(), HistogramSummary()
        for v in (0.5, 2.0, 3.0):
            a.add(v)
            both.add(v)
        for v in (2.0, 700.0):
            b.add(v)
            both.add(v)
        a.merge(b)
        assert a.buckets == both.buckets
        assert (a.count, a.min, a.max) == (5, 0.5, 700.0)

    def test_delta_is_a_copy(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        delta = reg.delta()
        reg.observe("h", 2.0)
        reg.count("c")
        assert delta["histograms"]["h"].count == 1
        assert delta["counters"] == {}

    def test_global_merge_is_gated(self):
        reg = MetricsRegistry()
        reg.count("worker.links", 3.0)
        obs.merge(reg.delta())
        assert "worker.links" not in obs.get_registry().counters
        with obs.capture() as captured:
            obs.merge(reg.delta())
        assert captured.counters["worker.links"] == 3.0


class TestPhaseNesting:
    def test_nested_keys(self):
        reg = MetricsRegistry()
        with reg.phase("epoch"):
            with reg.phase("forward"):
                pass
            with reg.phase("forward"):
                pass
        assert reg.phase_counts["epoch"] == 1
        assert reg.phase_counts["epoch/forward"] == 2
        assert reg.phase_totals["epoch"] >= reg.phase_totals["epoch/forward"]

    def test_leaf_aggregation(self):
        reg = MetricsRegistry()
        with reg.phase("train"):
            with reg.phase("forward"):
                pass
        with reg.phase("eval"):
            with reg.phase("forward"):
                pass
        leaves = reg.leaf_counts()
        assert leaves["forward"] == 2
        assert leaves["train"] == 1
        totals = reg.leaf_totals()
        assert totals["forward"] == pytest.approx(
            reg.phase_totals["train/forward"] + reg.phase_totals["eval/forward"]
        )

    def test_stack_unwinds_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.phase("outer"):
                with reg.phase("inner"):
                    raise RuntimeError("boom")
        # Both phases recorded and the stack is empty again.
        assert reg.phase_counts["outer"] == 1
        assert reg.phase_counts["outer/inner"] == 1
        with reg.phase("after"):
            pass
        assert "after" in reg.phase_totals  # not "outer/after"

    def test_threads_keep_their_own_phase_stacks(self):
        reg = MetricsRegistry()
        opened, release = threading.Event(), threading.Event()

        def worker():
            opened.wait(5)
            with reg.phase("inference"):
                pass
            release.set()

        t = threading.Thread(target=worker)
        t.start()
        with reg.phase("train"):
            opened.set()
            assert release.wait(5)
        t.join()
        assert set(reg.phase_totals) == {"train", "inference"}

    def test_threads_lose_no_histogram_observations(self):
        # Four threads record the same histogram with a thread switch
        # forced every microsecond; every bucket count must survive.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.capture() as reg:

                def worker(t):
                    for i in range(20_000):
                        obs.observe("race.lat", 0.001 * (1 + (i + t) % 50))
                        obs.count("race.calls")

                threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        hist = reg.histograms["race.lat"]
        assert hist.count == 80_000
        assert sum(hist.buckets.values()) == hist.count
        assert reg.counters["race.calls"] == 80_000

    def test_exited_threads_fold_into_one_shard(self):
        # A thread per request: shards of exited threads must not pile
        # up, and what they recorded must survive the fold.
        reg = MetricsRegistry()

        def request(i):
            reg.count("req.calls")
            reg.observe("req.lat", 0.5 * (1 + i % 3))
            with reg.phase("req"):
                pass

        for i in range(60):
            t = threading.Thread(target=request, args=(i,))
            t.start()
            t.join()
        assert reg.counters["req.calls"] == 60
        assert len(reg._shards) <= 1
        assert reg.histograms["req.lat"].count == 60
        assert reg.phase_counts["req"] == 60

    def test_views_are_read_only(self):
        reg = MetricsRegistry()
        reg.count("a")
        with pytest.raises(TypeError):
            reg.counters["a"] += 1.0
        with pytest.raises(TypeError):
            reg.phase_totals["p"] = 1.0


class TestGlobalGating:
    def test_disabled_trace_is_noop(self):
        assert not obs.enabled()
        before = dict(obs.get_registry().phase_counts)
        with obs.trace("nothing"):
            pass
        obs.count("nothing")
        obs.observe("nothing", 1.0)
        assert dict(obs.get_registry().phase_counts) == before
        assert "nothing" not in obs.get_registry().counters
        assert "nothing" not in obs.get_registry().histograms

    def test_capture_enables_and_restores(self):
        outer = obs.get_registry()
        assert not obs.enabled()
        with obs.capture() as reg:
            assert obs.enabled()
            assert obs.get_registry() is reg
            with obs.trace("work"):
                obs.count("done")
        assert not obs.enabled()
        assert obs.get_registry() is outer
        assert reg.phase_counts["work"] == 1
        assert reg.counters["done"] == 1.0

    def test_nested_capture_restores_enabled_state(self):
        with obs.capture() as outer_reg:
            with obs.capture() as inner_reg:
                obs.count("inner")
            # Inner capture exits: still enabled, outer registry back.
            assert obs.enabled()
            obs.count("outer")
        assert not obs.enabled()
        assert "inner" in inner_reg.counters
        assert "outer" in outer_reg.counters
        assert "inner" not in outer_reg.counters

    def test_snapshot_is_json_ready(self):
        import json

        with obs.capture() as reg:
            obs.count("c", 2)
            obs.observe("h", 0.5)
            with obs.trace("p"):
                pass
        text = json.dumps(reg.snapshot())
        assert "p" in text
