"""The benchmark's four workloads: inputs, set-up, timed loop, output checks.

Run one workload in this process and print its result record as the last
line of standard output (``run.py`` starts this file in a child process
per workload)::

    python benchmarks/e2e/workloads.py --workload score-cold --seed 0 --seconds 15 --trace 0

Every workload follows the same protocol (:func:`execute`):

1. set-up, repeated and timed (``setup_s`` is the median); inputs that
   need the graph are generated from ``--seed`` between the first
   set-up's two timed halves, outside the clock;
2. the timed loop, with tracing off, for about ``--seconds`` seconds;
3. output checks against a fresh, independent computation;
4. with ``--trace 1``: a fresh set-up and a second timed loop with every
   layer wrapped (``trace.py``); the per-layer numbers come from it and
   ``trace.overhead_frac`` compares its throughput with step 2's.

End-to-end metrics keep the same names on every workload; what a unit of
work is differs and is printed beside each value (see README.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import platform
import resource
import sys
import threading
import time
from concurrent.futures import wait as wait_futures
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Union

import numpy as np

from repro.datasets import registry
from repro.experiments.config import build_model, hyperparams_for, train_config_for
from repro.experiments.runner import ExperimentRunner
from repro.nn.optim import Adam
from repro.seal import evaluator, trainer
from repro.seal.dataset import sample_negative_pairs
from repro.serve import LinkScorer, ModelBundle, ScoringServer, ServeConfig
from repro.stream import StreamingGraph, generate_events
from repro.utils.rng import derive

from trace import Tracer

ROOT = Path(__file__).resolve().parents[2]
clock = time.perf_counter

MICRO_BATCH = 16  # LinkScorer forward width
REQUEST_PAIRS = 64  # score-cold: pairs per request, half edges, half negatives
# score-cold and stream-churn do a fixed amount of work per second of
# --seconds, about what the reference host does, so their memory does not
# grow with their speed.
REQUESTS_PER_S = 18
# serve-zipf: open-loop rates and the share of --seconds each runs, then
# a closed loop that saturates the server for the rest.
SERVE_RATES = (200, 400)
SERVE_SHARES = (0.10, 0.55)
REFERENCE_RATE = 400  # the step whose latencies are reported
SATURATION_SHARE = 0.35
SATURATION_CLIENTS = 64
SATURATION_RATE = 2500  # closed-loop work is sized to last its share at this rate
SATURATION_TIMEOUT_S = 60
LATENCY_LIMIT_S = 0.050  # p99 limit a passing step meets
DRAIN_S = 1.0  # backlog must drain this soon after the last send
QUEUE_DEPTH = 256
ZIPF_EXPONENT = 1.1
LATE_S = 0.001  # a send this far behind schedule counts as late
WINDOW_EVENTS = 25  # stream-churn events per window
WINDOWS_PER_S = 10
ADD_FRACTION = 0.85
SCORE_ULPS = 8  # allowed drift of a probability scored in another micro-batch
PROBE_NOMINAL_S = 0.00172  # median Pace probe time on the reference host
LOCAL_REACH = 3  # probes on either side that set a latency's local slowdown
SETUP_PROBES = 4  # probes before the first set-up and after each
OPEN_LOOP_PROBE_EVERY = 64  # serve-zipf: open-loop requests between two probes
CLOSED_LOOP_PROBE_EVERY = 128  # serve-zipf: closed-loop replies between two probes
MAX_WINDOWS = 4  # latency percentiles are medians over this many windows at most


@dataclass(frozen=True)
class Size:
    """Input sizes. The defaults are the benchmark's; tests shrink them."""

    scale: float = 50.0
    num_targets: Optional[int] = None
    epochs: Optional[int] = None  # None: the tuned hyperparameters' 10
    setup_repeats: int = 3
    candidates: int = 20_000  # serve-zipf pair universe
    hot: int = 256  # serve-zipf pairs warmed before each step
    working_set: int = 512  # stream-churn pairs re-scored per window
    # table3-primekg: AUC and AP may differ at most this much from the
    # training seed's values in TABLE3_EXPECTED.
    accuracy_slack: float = 0.01


@dataclass
class Measured:
    """What one timed loop produced. Times exclude :class:`Pace` probes."""

    wall_s: float
    cpu_s: float
    throughput: float
    latencies_ms: np.ndarray
    attempted: int
    failed: int
    slowdown: float  # Pace.slowdown of the probes run while throughput was timed
    latency_slowdown: Union[float, np.ndarray]  # ... while latencies were timed, or per sample
    layer: Dict[str, float] = field(default_factory=dict)  # per-layer values seen from outside
    details: Dict[str, object] = field(default_factory=dict)  # printed and recorded
    evidence: Dict[str, object] = field(default_factory=dict)  # compared by check()


class Pace:
    """How fast the host ran, from a fixed probe run between units of work.

    The reference host is shared: its speed moved by up to 2.5x between
    minutes, far more than the bounds this benchmark wants to resolve.
    The probe (small matrix products, interpreter arithmetic, a
    scatter-add, and random reads from an 8 MiB array, past the per-core
    cache) slows down with the host. It runs on the thread doing the
    work, between its units, while they are timed; its time is kept out
    of every measured interval, and timed end-to-end metrics are divided
    by the slowdown the probes show so runs at different host speeds
    compare. Raw values stay in the record. Over 18 s windows of table3 training, the
    random reads halved what the rescaling left of the host's drift.
    Each unit of work (a training step, a score-cold request, a
    stream-churn window, a served request, a stretch of the closed loop)
    is divided by the slowdown around it (:meth:`local`), which also takes
    out stalls shorter than a run: over ten seeds, score-cold's p90 spread
    fell from 0.12 to 0.06 and its throughput's from 0.05 to 0.02.
    """

    def __init__(self):
        gen = np.random.default_rng(0)
        self._matrix = gen.standard_normal((64, 64))
        self._index = gen.integers(0, 1 << 14, 1 << 15)
        self._values = gen.standard_normal(1 << 14)
        self._far = gen.standard_normal(1 << 20)
        self._far_index = gen.integers(0, 1 << 20, 1 << 16)
        self.times: List[float] = []

    def probe(self, count: int = 1) -> float:
        """Run the probe ``count`` times; returns the seconds it took."""
        spent = 0.0
        for _ in range(count):
            t0 = clock()
            for _ in range(16):
                self._matrix @ self._matrix
            total = 0
            for i in range(16_000):
                total += i
            np.bincount(self._index, weights=self._values[self._index], minlength=1 << 14)
            for _ in range(2):
                self._far[self._far_index].sum()
            self.times.append(clock() - t0)
            spent += self.times[-1]
        return spent

    def local(self, since: int) -> np.ndarray:
        """Slowdown around each probe from ``times[since]`` on: the median
        of its time and ``LOCAL_REACH`` neighbours' on either side, over
        the reference host's; > 1 on a slow host."""
        times = np.asarray(self.times[since:])
        return np.array([
            np.median(times[max(0, i - LOCAL_REACH) : i + LOCAL_REACH + 1])
            for i in range(len(times))
        ]) / PROBE_NOMINAL_S

    @staticmethod
    def overall(unit_s, local: np.ndarray) -> float:
        """Slowdown of units of work that took ``unit_s`` at slowdowns
        ``local``: ``sum(unit_s) / sum(unit_s / local)``."""
        unit_s = np.asarray(unit_s)
        return float(unit_s.sum() / (unit_s / local).sum())


@contextmanager
def step_clock(pace: Pace):
    """Completion time of every ``Adam.step``, minus the probes in between.

    The one hook an end-to-end run installs: ``seal.train`` exposes only
    epoch times, and step latency needs a clock read per step (under a
    microsecond against ~40 ms steps). After every step the hook runs a
    :class:`Pace` probe; ``paused`` is their total time, already taken out
    of ``stamps``.
    """
    clocked = SimpleNamespace(stamps=[], paused=0.0)
    original = vars(Adam)["step"]

    def step(self):
        original(self)
        clocked.stamps.append(clock() - clocked.paused)
        clocked.paused += pace.probe()

    Adam.step = step
    try:
        yield clocked
    finally:
        Adam.step = original


def undirected_edges(graph) -> np.ndarray:
    """Distinct ``(u, v)`` pairs with ``u < v`` that are edges of ``graph``."""
    src, dst = graph.edge_index
    n = np.int64(graph.num_nodes)
    codes = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))
    codes = codes[codes // n != codes % n]
    return np.stack([codes // n, codes % n], axis=1)


def edges_and_negatives(graph, count: int, gen: np.random.Generator):
    """``count // 2`` distinct edges and ``count - count // 2`` distinct non-edges."""
    und = undirected_edges(graph)
    pos = und[gen.choice(len(und), count // 2, replace=False)]
    neg = sample_negative_pairs(graph, count - count // 2, rng=gen)
    return pos, neg


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def windows_for(count: int, tail_pct: float) -> int:
    """Consecutive windows, at most ``MAX_WINDOWS``, that each keep ten
    samples beyond ``tail_pct``."""
    return max(1, min(MAX_WINDOWS, count // math.ceil(1000 / (100 - tail_pct) - 1e-9)))


def windowed_percentile(values: np.ndarray, q: float, windows: int) -> float:
    """Median over ``windows`` consecutive windows of their ``q``-th
    percentile, so one stall moves one window, not the result."""
    if not len(values):
        return float("nan")
    return float(np.median([np.percentile(w, q) for w in np.array_split(values, windows)]))


def compare_scores(name: str, got: np.ndarray, want: np.ndarray, exact: bool) -> dict:
    """A check that ``got`` reproduces ``want``.

    ``exact`` demands every bit. Otherwise the rows were computed in
    different micro-batches, and ``LinkScorer``'s width-1 sort-key layer
    rounds a node's value by its row position in the batch, so a pair
    may move by an ulp or two; the check then allows ``SCORE_ULPS``.
    """
    if got.shape != want.shape:
        return {"name": name, "ok": False, "detail": f"shapes {got.shape} != {want.shape}"}
    same = int(np.count_nonzero(np.all(got == want, axis=1)))
    ulps = float(np.max(np.abs(got - want) / np.spacing(np.abs(want)), initial=0.0))
    ok = same == len(want) if exact else ulps <= SCORE_ULPS
    return {
        "name": name,
        "ok": bool(ok and np.all(np.isfinite(got))),
        "detail": f"{same}/{len(want)} rows bit-identical, max {ulps:.0f} ulp",
    }


class Workload:
    """One workload: ``load`` + ``prepare`` are the timed set-up.

    ``tail_pct`` is the latency percentile reported as ``latency_tail_ms``;
    the labels say what a unit of throughput and of latency is.
    """

    name = ""
    tail_pct = 90
    throughput_label = ""
    latency_label = ""

    def __init__(self, seed: int, seconds: float, size: Size):
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.pace = Pace()

    def load(self):
        raise NotImplementedError

    def make_inputs(self, state):
        return None

    def prepare(self, state, inputs) -> None:
        pass

    def measure(self, state, inputs, tracer: Optional[Tracer]) -> Measured:
        raise NotImplementedError

    def check(self, state, inputs, m: Measured) -> List[dict]:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# table3-primekg
# --------------------------------------------------------------------- #
#: ``{training seed: (AUC, AP)}`` of the table3-primekg job, as measured
#: when the benchmark was written. The initial weights and batch order
#: move AP by up to 0.08 between seeds, so each seed is held to its own
#: value. ``--seed S`` trains with seed ``S % len(TABLE3_EXPECTED)``, so
#: every run has a pinned value.
TABLE3_EXPECTED = {
    0: (0.9879, 0.9910), 1: (0.9840, 0.9615), 2: (0.9896, 0.9744), 3: (0.9866, 0.9910),
    4: (0.9949, 0.9653), 5: (0.9789, 0.9158), 6: (0.9856, 0.9760), 7: (0.9906, 0.9869),
    8: (0.9872, 0.9676), 9: (0.9881, 0.9910), 10: (0.9899, 0.9740), 11: (0.9887, 0.9802),
    12: (0.9867, 0.9802), 13: (0.9876, 0.9910), 14: (0.9917, 0.9685), 15: (0.9892, 0.9853),
    16: (0.9887, 0.9802), 17: (0.9889, 0.9804), 18: (0.9865, 0.9640), 19: (0.9889, 0.9881),
}


def committed_table3_row() -> Optional[Dict[str, float]]:
    """AM-DGCNN AUC/AP of the primekg row in ``results/table3_scale0.5.txt``."""
    path = ROOT / "results" / "table3_scale0.5.txt"
    if not path.is_file():
        return None
    for line in path.read_text().splitlines():
        cells = [c.strip() for c in line.split("|")]
        if cells and cells[0] == "primekg":
            return {"auc": float(cells[1]), "ap": float(cells[2])}
    return None


class Table3(Workload):
    """One Table III cell: AM-DGCNN trained and evaluated on PrimeKG.

    The dataset is always the committed cell's (``ExperimentRunner`` seed
    0): datasets of other seeds train up to 12% slower or faster, which
    would hide a regression of that size. The training seed
    (:data:`TABLE3_EXPECTED`) draws the initial weights and the batch
    order; at seed 0 the calls are exactly the ones
    ``ExperimentRunner.run`` makes for the committed row. A job is one
    whole training run; the loop runs whole jobs until ``--seconds`` is
    spent (at least one).
    """

    name = "table3-primekg"
    tail_pct = 90
    throughput_label = "links trained/s of seal.train wall"
    latency_label = "training step"

    @property
    def train_seed(self) -> int:
        return self.seed % len(TABLE3_EXPECTED)

    def load(self):
        runner = ExperimentRunner(scale=self.size.scale, seed=0)
        return SimpleNamespace(bundle=runner.bundle("primekg", self.size.num_targets))

    def measure(self, st, inputs, tracer):
        b = st.bundle
        task = b.dataset.task
        hp = hyperparams_for("primekg", "am_dgcnn", "tuned")
        config = dataclasses.replace(train_config_for(hp, self.size.epochs), num_workers=0)
        steps_per_epoch = -(-len(b.train_idx) // config.batch_size)
        gaps: List[float] = []
        local: List[float] = []  # Pace slowdown around each gap
        aucs, aps = [], []
        train_s = paused = 0.0
        links = steps = nonfinite = 0
        phases: Dict[str, float] = {}
        start, cpu0 = clock(), time.process_time()
        while True:
            model = build_model(
                "am_dgcnn", b.dataset.feature_width, task.num_classes, task.edge_attr_dim,
                hp, rng=derive(self.train_seed, "init", "primekg", "am_dgcnn"),
            )
            if tracer is not None:
                tracer.instrument_model(model)
            first_probe = len(self.pace.times)
            with step_clock(self.pace) as clocked:
                t0 = clock()
                history = trainer.train(
                    model, b.dataset, b.train_idx, config,
                    eval_indices=b.test_idx,
                    rng=derive(self.train_seed, "train", "primekg", "am_dgcnn"),
                    checkpoint=None,
                )
                job_s = clock() - t0 - clocked.paused
            final = evaluator.evaluate(model, b.dataset, b.test_idx, num_workers=0)
            train_s += job_s
            paused += clocked.paused
            links += len(b.train_idx) * history.epochs_run
            steps += len(clocked.stamps) + history.nonfinite_steps
            nonfinite += history.nonfinite_steps
            # Gap i ends at step i, whose probe follows it; gaps across an
            # epoch's end hold the epoch's evaluation and are left out.
            within = [i for i in range(1, len(clocked.stamps)) if i % steps_per_epoch]
            gaps.extend(np.diff(clocked.stamps)[np.subtract(within, 1)])
            local.extend(self.pace.local(first_probe)[within])
            for phase, seconds in history.phase_seconds.items():
                phases[phase] = phases.get(phase, 0.0) + seconds
            aucs.append(final.auc)
            aps.append(final.ap)
            if clock() - start - paused + job_s > self.seconds:
                break
        return Measured(
            wall_s=clock() - start - paused,
            cpu_s=time.process_time() - cpu0 - paused,
            throughput=links / train_s,
            latencies_ms=np.asarray(gaps) * 1e3,
            attempted=steps,
            failed=nonfinite,
            slowdown=Pace.overall(gaps, np.asarray(local)),
            latency_slowdown=np.asarray(local),
            details={
                "jobs": len(aucs),
                "auc": aucs[0],
                "ap": aps[0],
                "committed": committed_table3_row(),
                # The trainer times the probes run inside Adam.step as optimizer time.
                "phase_seconds": dict(phases, optimizer=phases["optimizer"] - paused),
            },
            evidence={"auc": aucs, "ap": aps},
        )

    def check(self, st, inputs, m):
        auc, ap = m.evidence["auc"], m.evidence["ap"]
        want_auc, want_ap = TABLE3_EXPECTED[self.train_seed]
        slack = self.size.accuracy_slack
        held = all(abs(a - want_auc) <= slack for a in auc) and all(
            abs(p - want_ap) <= slack for p in ap
        )
        return [
            {
                "name": f"auc/ap within {slack} of training seed {self.train_seed}'s",
                "ok": bool(held and np.all(np.isfinite(auc + ap))),
                "detail": f"auc {auc}, ap {ap}, expected {want_auc}/{want_ap}",
            },
            {
                "name": "repeated jobs identical",
                "ok": len(set(auc)) == 1 and len(set(ap)) == 1,
                "detail": f"{len(auc)} job(s)",
            },
        ]


# --------------------------------------------------------------------- #
# the three serving workloads share one graph and one untrained bundle
# --------------------------------------------------------------------- #
class GraphWorkload(Workload):
    def load(self):
        task = registry.load_dataset("primekg", scale=self.size.scale, rng=self.seed)
        task.graph.csr()
        hp = hyperparams_for("primekg", "am_dgcnn", "tuned")
        model = build_model(
            "am_dgcnn", task.feature_config.width, task.num_classes, task.edge_attr_dim,
            hp, rng=derive(self.seed, "init", "serve"),
        )
        return SimpleNamespace(graph=task.graph, bundle=ModelBundle.from_model(model, task))

    def scorer(self, st) -> LinkScorer:
        return LinkScorer(st.bundle, st.graph, micro_batch=MICRO_BATCH)


class ScoreCold(GraphWorkload):
    """Closed loop, one client: requests of never-seen pairs, cold store."""

    name = "score-cold"
    tail_pct = 90
    throughput_label = "pairs scored/s"
    latency_label = f"request of {REQUEST_PAIRS} new pairs"

    def make_inputs(self, st):
        gen = np.random.default_rng([self.seed, 1])
        count = max(2, math.ceil(self.seconds * REQUESTS_PER_S))
        half = REQUEST_PAIRS // 2
        pos, neg = edges_and_negatives(st.graph, count * REQUEST_PAIRS, gen)
        return [
            np.concatenate([pos[i * half : (i + 1) * half], neg[i * half : (i + 1) * half]])
            for i in range(count)
        ]

    def prepare(self, st, requests):
        st.live = self.scorer(st)

    def measure(self, st, requests, tracer):
        scorer = st.live
        if tracer is not None:
            tracer.instrument_model(scorer.model)
        lat, sample = [], []
        pairs = bad = 0
        paused = 0.0
        first_probe = len(self.pace.times)
        start, cpu0 = clock(), time.process_time()
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.set_unit(i)
            t0 = clock()
            result = scorer.score(request)
            lat.append(clock() - t0)
            pairs += len(request)
            bad += int(not np.all(np.isfinite(result.probs)))
            if i < 2:
                sample.append(result.probs)
            paused += self.pace.probe()
        wall = clock() - start - paused
        local = self.pace.local(first_probe)
        return Measured(
            wall_s=wall,
            cpu_s=time.process_time() - cpu0 - paused,
            throughput=pairs / wall,
            latencies_ms=np.asarray(lat) * 1e3,
            attempted=len(lat),
            failed=bad,
            slowdown=Pace.overall(lat, local),
            latency_slowdown=local,
            details={"requests": len(lat), "pairs": pairs},
            evidence={"pairs": np.concatenate(requests[:2]), "probs": np.concatenate(sample)},
        )

    def check(self, st, requests, m):
        # The same pairs in the same order fill the same micro-batches, so
        # every bit must match.
        again = self.scorer(st).score(m.evidence["pairs"]).probs
        return [compare_scores(
            "re-scored as one request on a fresh scorer", m.evidence["probs"], again, exact=True
        )]


class ServeZipf(GraphWorkload):
    """The coalescing server under Zipf-popular requests of 1-4 pairs.

    First open-loop steps at fixed rates: one generator thread sends on a
    Poisson schedule, and latency runs from each request's scheduled send
    time, so a stall counts against every request it delays. A step
    passes when nothing is rejected, at most 1% of requests exceed the
    limit (p99 <= limit) and the backlog drains within ``DRAIN_S`` of the
    last send. Then a closed loop of ``SATURATION_CLIENTS`` callers, each
    sending again as soon as its reply arrives, keeps the server busy
    through a fixed number of requests and measures its capacity (a fixed
    request sequence warms the score cache the same way on every run).
    Every step starts from a fresh scorer whose ``hot`` most popular pairs
    are extracted and scored.

    :class:`Pace` probes run on the server thread, from reply callbacks,
    in every step: scoring speed followed them (correlation 0.9 over 11 s
    windows), while probes run between steps did not follow the latency.
    An open-loop probe delays the requests queued behind it, as any
    batch would; the same happens on every run.
    """

    name = "serve-zipf"
    tail_pct = 90
    throughput_label = f"requests/s served to {SATURATION_CLIENTS} closed-loop callers"
    latency_label = f"request at {REFERENCE_RATE} req/s, open loop"

    def make_inputs(self, st):
        gen = np.random.default_rng([self.seed, 2])
        pos, neg = edges_and_negatives(st.graph, self.size.candidates, gen)
        candidates = gen.permutation(np.concatenate([pos, neg]))
        weights = np.arange(1, len(candidates) + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        return SimpleNamespace(
            candidates=candidates,
            popularity=weights / weights.sum(),
            hot=candidates[: self.size.hot],
        )

    def _requests(self, inp, gen: np.random.Generator, count: int) -> List[np.ndarray]:
        sizes = gen.integers(1, 5, size=count)
        picks = gen.choice(len(inp.candidates), size=int(sizes.sum()), p=inp.popularity)
        return np.split(inp.candidates[picks], np.cumsum(sizes)[:-1])

    def _server(self, st, inp, tracer) -> ScoringServer:
        scorer = self.scorer(st)
        if tracer is not None:
            tracer.instrument_model(scorer.model)
        scorer.warm(inp.hot)
        scorer.score(inp.hot)
        return ScoringServer(scorer, ServeConfig(max_queue_depth=QUEUE_DEPTH)).start()

    def _open_loop(self, st, inp, rate: int, duration: float, tracer) -> dict:
        gen = np.random.default_rng([self.seed, 3, rate])
        offsets = np.cumsum(gen.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16))
        offsets = offsets[offsets < duration]
        requests = self._requests(inp, gen, len(offsets))
        n = len(requests)
        done = np.full(n, np.inf)
        outcome: List[object] = [None] * n
        sent = np.empty(n)
        probed_at: List[float] = []

        def finish(i, future):
            done[i] = clock()
            outcome[i] = future.exception() or future.result()
            if i % OPEN_LOOP_PROBE_EVERY == 0:
                probed_at.append(done[i])
                self.pace.probe()

        server = self._server(st, inp, tracer)
        first_probe = len(self.pace.times)
        try:
            due = clock() + 0.002 + offsets
            futures = []
            for i in range(n):
                delay = due[i] - clock()
                if delay > 0:
                    time.sleep(delay)
                sent[i] = clock()
                future = server.submit(requests[i])
                future.add_done_callback(functools.partial(finish, i))
                futures.append(future)
            wait_futures(futures, timeout=DRAIN_S)
            drained = all(f.done() for f in futures)
        finally:
            server.stop(drain=False)
        ok = np.array([getattr(o, "ok", False) is True for o in outcome])
        rejected = np.array([getattr(o, "ok", None) is False for o in outcome])
        latency = done - due
        misses = int(np.count_nonzero(~ok | (latency > LATENCY_LIMIT_S)))
        served = latency[ok]
        scoring = np.array([outcome[i].timing["total_s"] for i in np.flatnonzero(ok)])
        local = self.pace.local(first_probe)
        nearest = np.minimum(np.searchsorted(probed_at, done[ok]), len(local) - 1)
        return {
            "rate": rate,
            "seconds": duration,
            "requests": n,
            "ok": int(ok.sum()),
            "rejected": int(rejected.sum()),
            "p50_ms": percentile(served, 50) * 1e3,
            "p99_ms": percentile(served, 99) * 1e3,
            "late_p99_ms": percentile(sent - due, 99) * 1e3,
            "late": int(np.count_nonzero(sent - due > LATE_S)),
            "passed": bool(drained and not rejected.any() and misses <= 0.01 * n),
            "latencies_ms": served * 1e3,
            "queue_s": float(np.sum(served - scoring)),
            "sample": [(requests[i], outcome[i].probs) for i in np.flatnonzero(ok)[:64]],
            "paused": float(sum(self.pace.times[first_probe:])),
            "slowdown": local[nearest],  # per served request
        }

    def _closed_loop(self, st, inp, count: int, tracer) -> dict:
        """Serve ``count`` requests to closed-loop callers; returns req/s."""
        requests = self._requests(inp, np.random.default_rng([self.seed, 5]), count)
        lock = threading.Lock()
        finished = threading.Event()
        tally = {"next": 0, "replied": 0, "failed": 0, "paused": 0.0}
        segments: List[float] = []  # serving seconds up to each probe
        server = self._server(st, inp, tracer)
        first_probe = len(self.pace.times)

        def send():
            with lock:
                i = tally["next"]
                tally["next"] += 1
            server.submit(requests[i]).add_done_callback(reply)

        def reply(future):
            good = future.exception() is None and future.result().ok
            with lock:
                tally["replied"] += 1
                tally["failed"] += int(not good)
                again = tally["next"] < count
                last = tally["replied"] == count
                probe = tally["replied"] % CLOSED_LOOP_PROBE_EVERY == 0
            if probe:  # on the server thread, so no batch is scored meanwhile
                now = clock()
                spent = self.pace.probe()
                with lock:
                    segments.append(now - tally["mark"])
                    tally["mark"] = now + spent
                    tally["paused"] += spent
            if again:
                send()
            elif last:
                finished.set()

        try:
            start = tally["mark"] = clock()
            for _ in range(min(SATURATION_CLIENTS, count)):
                send()
            finished.wait(SATURATION_TIMEOUT_S)
            end = clock()
        finally:
            server.stop(drain=False)
        local = self.pace.local(first_probe)
        segments.append(end - tally["mark"])  # after the last probe
        return {"requests": count, "failed": tally["failed"] + count - tally["replied"],
                "rps": tally["replied"] / (end - start - tally["paused"]),
                "paused": tally["paused"],
                "slowdown": Pace.overall(segments, np.append(local, local[-1]))}

    def measure(self, st, inp, tracer):
        start, cpu0 = clock(), time.process_time()
        steps = [
            self._open_loop(st, inp, rate, share * self.seconds, tracer)
            for rate, share in zip(SERVE_RATES, SERVE_SHARES)
        ]
        saturated = self._closed_loop(
            st, inp, int(SATURATION_SHARE * self.seconds * SATURATION_RATE) + 1, tracer
        )
        paused = sum(s["paused"] for s in steps) + saturated["paused"]
        wall = clock() - start - paused
        ref = steps[SERVE_RATES.index(REFERENCE_RATE)]
        sent = sum(s["requests"] for s in steps)
        return Measured(
            wall_s=wall,
            cpu_s=time.process_time() - cpu0 - paused,
            throughput=saturated["rps"],
            latencies_ms=ref["latencies_ms"],
            attempted=sent + saturated["requests"],
            failed=sum(s["requests"] - s["ok"] for s in steps) + saturated["failed"],
            slowdown=saturated["slowdown"],
            latency_slowdown=ref["slowdown"],
            layer={
                "serve.server.queue_frac": ref["queue_s"] / max(float(np.sum(ref["latencies_ms"])) / 1e3, 1e-12),
                "serve.server.rejected": float(sum(s["rejected"] for s in steps)),
                "served_requests": float(
                    sum(s["ok"] for s in steps) + saturated["requests"] - saturated["failed"]
                ),
                "gen.late_frac": sum(s["late"] for s in steps) / sent,
            },
            details={
                "steps": [
                    {k: v for k, v in s.items() if k not in ("latencies_ms", "sample", "slowdown")}
                    for s in steps
                ],
                "saturated": {k: saturated[k] for k in ("requests", "rps")},
            },
            evidence={"sample": ref["sample"]},
        )

    def check(self, st, inp, m):
        name = "served futures equal direct LinkScorer.score"
        sample = m.evidence["sample"]
        if not sample:
            return [{"name": name, "ok": False, "detail": "no request served at the reference rate"}]
        direct = self.scorer(st).score(np.concatenate([p for p, _ in sample])).probs
        served = np.concatenate([probs for _, probs in sample])
        return [compare_scores(name, served, direct, exact=False)]


class StreamChurn(GraphWorkload):
    """Closed loop of graph writes and cached reads, one window at a time:
    ``apply`` -> ``snapshot`` -> delta ``invalidate`` -> re-score the working set."""

    name = "stream-churn"
    tail_pct = 85
    throughput_label = "events/s through apply..re-score"
    latency_label = f"refresh of a {WINDOW_EVENTS}-event window"

    def make_inputs(self, st):
        gen = np.random.default_rng([self.seed, 4])
        pos, neg = edges_and_negatives(st.graph, self.size.working_set, gen)
        windows = max(1, math.ceil(self.seconds * WINDOWS_PER_S))
        events = generate_events(
            st.graph, windows * WINDOW_EVENTS, rng=self.seed, add_fraction=ADD_FRACTION
        )
        return SimpleNamespace(
            working_set=np.concatenate([pos, neg]),
            windows=list(events.windows(WINDOW_EVENTS)),
        )

    def prepare(self, st, inp):
        st.stream = StreamingGraph(st.graph)
        st.live = self.scorer(st)
        st.live.warm(inp.working_set)
        st.live.score(inp.working_set)

    def measure(self, st, inp, tracer):
        stream, scorer = st.stream, st.live
        if tracer is not None:
            tracer.instrument_model(scorer.model)
        lat = []
        events = retired = 0
        snap = result = None
        paused = 0.0
        first_probe = len(self.pace.times)
        start, cpu0 = clock(), time.process_time()
        for i, window in enumerate(inp.windows):
            if tracer is not None:
                tracer.set_unit(i)
            t0 = clock()
            stream.apply(window)
            snap = stream.snapshot()
            scorer.invalidate(snap.graph, delta=snap.delta)
            result = scorer.score(inp.working_set)
            lat.append(clock() - t0)
            events += len(window)
            retired += int(np.count_nonzero(~result.cached))
            paused += self.pace.probe()
        wall = clock() - start - paused
        local = self.pace.local(first_probe)
        return Measured(
            wall_s=wall,
            cpu_s=time.process_time() - cpu0 - paused,
            throughput=events / wall,
            latencies_ms=np.asarray(lat) * 1e3,
            attempted=len(lat),
            failed=0,
            slowdown=Pace.overall(lat, local),
            latency_slowdown=local,
            layer={
                "serve.scorer.retired_frac": retired / (len(lat) * len(inp.working_set)),
                "stream.tombstone_arcs": float(stream.tombstones),
            },
            details={"windows": len(lat), "events": events, "version": snap.version},
            evidence={"graph": snap.graph, "probs": result.probs},
        )

    def check(self, st, inp, m):
        # A fresh scorer on the last snapshot is a full clear. Survivors of
        # delta invalidation were scored in earlier micro-batches.
        fresh = LinkScorer(st.bundle, m.evidence["graph"], micro_batch=MICRO_BATCH)
        full = fresh.score(inp.working_set).probs
        return [compare_scores(
            "last window: delta invalidation equals a full clear", m.evidence["probs"], full,
            exact=False,
        )]


WORKLOADS = {w.name: w for w in (Table3, ScoreCold, ServeZipf, StreamChurn)}

SIZES = {
    "table3-primekg": Size(scale=0.5, setup_repeats=5),
    "score-cold": Size(),
    "serve-zipf": Size(),
    "stream-churn": Size(),
}


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
#: Per-layer self times reported in seconds: these layers run on every workload.
LAYER_SECONDS = {
    **{f"models.{p}.fwd_s": f"models.{p}.fwd" for p in (
        "convs.0", "convs.1", "convs.2", "sort_pool", "conv1", "pool", "conv2", "lin1", "lin2",
    )},
    "models.glue_fwd_s": "models.glue_fwd",
    "data.loader.collate_s": "data.loader.collate",
}
#: Per-layer self times reported as a share of the traced loop's wall:
#: these layers are off some workloads' paths, where the share is 0.
LAYER_SHARES = {
    "graph.bulk.extract_share": "graph.bulk.extract",
    "data.extraction.pack_share": "data.extraction.pack",
    "data.store.put_share": "data.store.put",
    "data.store.evict_share": "data.store.evict",
    "data.loader.wait_share": "data.loader.next",
    "nn.losses.cross_entropy_share": "nn.losses.cross_entropy",
    "nn.tensor.backward_share": "nn.tensor.backward",
    "nn.optim.clip_share": "nn.optim.clip",
    "nn.optim.adam_step_share": "nn.optim.adam_step",
    "seal.evaluator.evaluate_share": "seal.evaluator.evaluate",
    "serve.scorer.score_share": "serve.scorer.score",
    "serve.scorer.invalidate_share": "serve.scorer.invalidate",
    "graph.traversal.k_hop_union_share": "graph.traversal.k_hop_union",
    "stream.apply_share": "stream.apply",
    "stream.snapshot_share": "stream.snapshot",
}
TRAIN_STEP_SPANS = (
    "data.loader.next", "models.glue_fwd", "nn.losses.cross_entropy",
    "nn.tensor.backward", "nn.optim.clip", "nn.optim.adam_step",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def train_step_accounting(tracer: Tracer) -> Dict[str, float]:
    """Training-step wall and its top-level span coverage.

    A step runs from the last top-level loader ``next()`` before an
    ``Adam.step`` to that step's end (the ``next()`` that ends an epoch
    precedes the epoch's evaluation, so it opens no step); top-level
    spans cover everything but the trainer's own bookkeeping between calls.
    """
    wall = covered = 0.0
    begin, inside = None, 0.0
    for s in tracer.spans:
        if s.parent != -1 or s.end is None:
            continue
        if s.name == "data.loader.next":
            begin, inside = s.start, 0.0
        if begin is not None and s.name in TRAIN_STEP_SPANS:
            inside += s.end - s.start
        if begin is not None and s.name == "nn.optim.adam_step":
            wall += s.end - begin
            covered += inside
            begin = None
    return {"step_wall_s": wall, "covered_s": covered}


def phase_check(tracer: Tracer, phases: Dict[str, float]) -> Dict[str, float]:
    """Training span sums over ``TrainResult.phase_seconds``, per phase."""
    top = [s for s in tracer.spans if s.parent == -1 and s.end is not None]

    def spent(*names: str) -> float:
        return sum(s.end - s.start for s in top if s.name in names)

    return {
        "forward": _ratio(spent("models.glue_fwd", "nn.losses.cross_entropy"), phases["forward"]),
        "backward": _ratio(spent("nn.tensor.backward"), phases["backward"]),
        "optimizer": _ratio(spent("nn.optim.clip", "nn.optim.adam_step"), phases["optimizer"]),
    }


def layer_metrics(tracer: Tracer, traced: Measured, untraced: Measured, dataset_s: float) -> Dict[str, float]:
    selfs = tracer.self_times()
    spans = tracer.span_counts()
    counts = tracer.counts
    out = {name: selfs.get(span, 0.0) for name, span in LAYER_SECONDS.items()}
    out.update({name: selfs.get(span, 0.0) / traced.wall_s for name, span in LAYER_SHARES.items()})
    steps = train_step_accounting(tracer)
    calls = spans.get("serve.scorer.score", 0)
    out.update({
        "setup.dataset_s": dataset_s,
        "graph.bulk.links": counts["graph.bulk.links"],
        "data.store.puts": float(spans.get("data.store.put", 0)),
        "data.store.plan_hit_frac": _ratio(
            counts["data.store.plan_hits"],
            counts["data.store.plan_hits"] + counts["data.store.plan_misses"],
        ),
        "data.loader.batches": counts["data.loader.batches"],
        "models.forwards": float(spans.get("models.glue_fwd", 0)),
        "models.rows": counts["models.rows"],
        "seal.train.unattributed_share": _ratio(
            steps["step_wall_s"] - steps["covered_s"], steps["step_wall_s"]
        ),
        "serve.scorer.calls": float(calls),
        "serve.scorer.pairs_per_call": _ratio(counts["serve.scorer.pairs"], calls),
        "serve.scorer.cache_hit_frac": _ratio(counts["serve.scorer.cached"], counts["serve.scorer.pairs"]),
        "serve.scorer.pad_frac": 1.0 - _ratio(counts["serve.scorer.fresh"], counts["serve.scorer.rows"])
        if counts["serve.scorer.rows"] else 0.0,
        "serve.scorer.retired_frac": traced.layer.get("serve.scorer.retired_frac", 0.0),
        "serve.server.queue_frac": traced.layer.get("serve.server.queue_frac", 0.0),
        "serve.server.rejected": traced.layer.get("serve.server.rejected", 0.0),
        "serve.server.requests_per_batch": _ratio(traced.layer.get("served_requests", 0.0), calls),
        "stream.tombstone_arcs": traced.layer.get("stream.tombstone_arcs", 0.0),
        "gen.late_frac": traced.layer.get("gen.late_frac", 0.0),
        "proc.cpu_util": untraced.cpu_s / untraced.wall_s,
        "trace.overhead_frac": (untraced.throughput * untraced.slowdown)
        / (traced.throughput * traced.slowdown) - 1.0,
    })
    return out


def end_to_end(
    wl: Workload,
    m: Measured,
    setup_s: List[float],
    setup_slowdown: List[float],
    peak_rss_mb: float,
    rescale: bool = True,
) -> Dict[str, float]:
    """The end-to-end metrics. With ``rescale``, each time is divided by
    the :class:`Pace` slowdown measured around it."""
    windows = windows_for(len(m.latencies_ms), wl.tail_pct)
    slowdown = m.slowdown if rescale else 1.0
    latencies = m.latencies_ms / m.latency_slowdown if rescale else m.latencies_ms
    setups = np.divide(setup_s, setup_slowdown) if rescale else setup_s
    return {
        "setup_s": float(np.median(setups)),
        "throughput_per_s": m.throughput * slowdown,
        "latency_p50_ms": windowed_percentile(latencies, 50, windows),
        "latency_tail_ms": windowed_percentile(latencies, wl.tail_pct, windows),
        "peak_rss_mb": peak_rss_mb,
    }


def host() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------- #
def setup(wl: Workload, repeats: int, inputs=None):
    """Run the timed set-up ``repeats`` times; returns the last state,
    the inputs, every set-up time and the :class:`Pace` slowdown around
    each: the median of the probes just before and just after it. Scaled
    so, the medians of three sets of ten runs lay at most 11% apart;
    unscaled, 43%."""
    times, slowdowns, state = [], [], None
    wl.pace.probe(SETUP_PROBES)
    for _ in range(repeats):
        state = None  # free the previous set-up before timing the next
        t0 = clock()
        state = wl.load()
        loaded = clock() - t0
        if inputs is None:
            inputs = wl.make_inputs(state)
        t1 = clock()
        wl.prepare(state, inputs)
        times.append(loaded + clock() - t1)
        wl.pace.probe(SETUP_PROBES)
        slowdowns.append(float(np.median(wl.pace.times[-2 * SETUP_PROBES :])) / PROBE_NOMINAL_S)
    return state, inputs, times, slowdowns


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: Optional[Size] = None,
    spans_path: Optional[Path] = None,
    corrupt=None,
) -> dict:
    """Run one workload; returns its result record.

    ``corrupt(measured)`` may alter a loop's output before it is checked
    (tests use it to show the checks catch a wrong score).
    """
    wl = WORKLOADS[name](seed, seconds, size or SIZES[name])
    state, inputs, setup_s, setup_slowdown = setup(wl, wl.size.setup_repeats)
    m = wl.measure(state, inputs, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if corrupt is not None:
        corrupt(m)
    checks = wl.check(state, inputs, m)
    metrics = end_to_end(wl, m, setup_s, setup_slowdown, peak_rss_mb)
    samples = {
        "setup_s": len(setup_s),
        "latency_p50_ms": len(m.latencies_ms),
        "latency_tail_ms": len(m.latencies_ms),
    }
    details = dict(m.details)
    details["slowdown"] = m.slowdown
    details["latency_slowdown"] = float(np.median(m.latency_slowdown))
    details["probes"] = len(wl.pace.times)
    details["unscaled"] = end_to_end(wl, m, setup_s, setup_slowdown, peak_rss_mb, rescale=False)
    details["latencies_ms"] = m.latencies_ms
    if trace:
        state = None
        tracer = Tracer()
        with tracer.installed():
            state = setup(wl, 1, inputs)[0]
            dataset_s = tracer.total("setup.dataset")
            tracer.clear()
            traced = wl.measure(state, inputs, tracer)
        checks += [dict(c, name=f"traced: {c['name']}") for c in wl.check(state, inputs, traced)]
        metrics = layer_metrics(tracer, traced, m, dataset_s)
        samples = {"spans": len(tracer.spans)}
        details["traced"] = traced.details
        if "phase_seconds" in traced.details:
            details["phase_check"] = phase_check(tracer, traced.details["phase_seconds"])
        if spans_path is not None:
            tracer.write(spans_path)
    failed = m.failed + sum(not c["ok"] for c in checks)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": all(c["ok"] for c in checks),
        "attempted": m.attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "labels": {
            "throughput_per_s": wl.throughput_label,
            "latency": wl.latency_label,
            "latency_tail_ms": f"p{wl.tail_pct}",
            "windows": windows_for(len(m.latencies_ms), wl.tail_pct),
        },
        "checks": checks,
        "details": details,
        "host": host(),
    }


def _jsonable(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot record a {type(obj).__name__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None, help="write traced spans here")
    args = parser.parse_args(argv)
    record = execute(args.workload, args.seed, args.seconds, bool(args.trace), spans_path=args.spans)
    sys.stdout.write(json.dumps(record, default=_jsonable) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
