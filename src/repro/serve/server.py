"""In-process scoring server: coalescing queue + admission control.

:class:`ScoringServer` wraps one :class:`~repro.serve.LinkScorer` behind
a thread-safe submission queue. A single worker thread drains the queue,
drops requests whose deadline already passed (*before* any extraction is
spent on them), concatenates the survivors' pairs into one
:meth:`LinkScorer.score` call — one batched extraction sweep, shared
plan-cache hits, forwards of up to ``micro_batch`` rows — and slices
the coalesced result back into per-request
:class:`~repro.serve.ScoreResult` rows. Because
the scorer's forwards are composition-independent, coalescing changes
latency and throughput but never a single bit of any probability.

Admission control is typed, not exceptional: a submit against a full
queue resolves immediately to :class:`~repro.serve.Rejected`
(``reason="queue_full"``), deadline drops resolve to
``reason="deadline"``, and a shutdown flushes the backlog with
``reason="shutdown"`` — callers always get *an* answer.

Requests may be submitted before :meth:`ScoringServer.start`; they queue
up (still subject to the depth cap) and are served once the worker runs.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.serve.scorer import LinkScorer, Rejected, ScoreOutcome, ScoreRequest

__all__ = ["ServeConfig", "ScoringServer"]

#: pair budget of one coalesced scoring call: the worker stops draining
#: the queue once the batch holds this many pairs (a single oversized
#: request still runs alone)
MAX_BATCH_PAIRS = 64
#: how long the worker lingers for more arrivals after picking up the
#: first queued request — the micro-batching window
BATCH_WINDOW_S = 0.002


@dataclass(frozen=True)
class ServeConfig:
    """Queueing policy of one :class:`ScoringServer`.

    Parameters
    ----------
    max_queue_depth: pending requests admitted before submissions are
        shed with ``Rejected("queue_full")``.
    default_deadline_s: every request's latency budget, in seconds
        counted from its submit (``None`` = no deadline).
    """

    max_queue_depth: int = 64
    default_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")


class ScoringServer:
    """Serve concurrent scoring requests through one shared scorer."""

    def __init__(self, scorer: LinkScorer, config: Optional[ServeConfig] = None):
        self.scorer = scorer
        self.config = config or ServeConfig()
        self._queue: List[Tuple[ScoreRequest, Future]] = []
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._worker: Optional[threading.Thread] = None
        self._running = False
        self._closed = False
        self._drain_on_stop = True
        self._peak_depth = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ScoringServer":
        """Launch the worker thread (idempotent until :meth:`stop`)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("server already stopped")
            if self._running:
                return self
            self._running = True
        self._worker = threading.Thread(
            target=self._serve_loop, name="repro-serve", daemon=True
        )
        self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; flush or reject whatever is still queued.

        With ``drain`` the worker finishes the backlog before exiting;
        without it, queued requests resolve to ``Rejected("shutdown")``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._drain_on_stop = drain
            self._arrived.notify_all()
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        with self._lock:
            leftovers = self._queue
            self._queue = []
        for request, future in leftovers:
            obs.count("serve.rejected")
            future.set_result(
                Rejected(
                    reason="shutdown",
                    detail="server stopped before the request was served",
                    request_id=request.request_id,
                )
            )
        self._running = False

    def __enter__(self) -> "ScoringServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # submission side
    # ------------------------------------------------------------------ #
    def submit(
        self,
        pairs,
        *,
        request_id: Optional[str] = None,
    ) -> "Future[ScoreOutcome]":
        """Enqueue a request; returns a future of its typed outcome.

        The request's latency budget is the config's
        ``default_deadline_s`` (seconds from now). A full queue resolves
        the future immediately with ``Rejected("queue_full")`` —
        admission control never raises.
        """
        request = ScoreRequest.with_budget(
            pairs, self.config.default_deadline_s, request_id=request_id
        )
        future: "Future[ScoreOutcome]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("server already stopped")
            if len(self._queue) >= self.config.max_queue_depth:
                obs.count("serve.rejected")
                future.set_result(
                    Rejected(
                        reason="queue_full",
                        detail=(
                            f"queue depth {len(self._queue)} at the "
                            f"{self.config.max_queue_depth} cap"
                        ),
                        request_id=request_id,
                    )
                )
                return future
            self._queue.append((request, future))
            depth = len(self._queue)
            self._peak_depth = max(self._peak_depth, depth)
            obs.gauge("serve.queue.depth", float(depth))
            obs.gauge("serve.queue.peak_depth", float(self._peak_depth))
            self._arrived.notify()
        return future

    def request(
        self,
        pairs,
        *,
        request_id: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> ScoreOutcome:
        """Blocking convenience: submit and wait for the outcome."""
        return self.submit(pairs, request_id=request_id).result(timeout=timeout)

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _queued_pairs(self) -> int:
        """Pairs waiting in the queue. Caller must hold the lock."""
        return sum(len(request.pairs) for request, _ in self._queue)

    def _take_batch(self) -> List[Tuple[ScoreRequest, Future]]:
        """Block until work or shutdown; drain up to the pair budget."""
        taken: List[Tuple[ScoreRequest, Future]] = []
        with self._lock:
            while not self._queue and not self._closed:
                self._arrived.wait()
            if not self._queue or (self._closed and not self._drain_on_stop):
                return []
            # Linger so concurrent submitters can join this batch — on
            # the condition variable, not a fixed sleep, so the window
            # ends the moment the pair budget fills or stop() is called
            # (a fixed sleep made every lone submit and every shutdown
            # pay the full window). A closing server skips the linger
            # entirely and drains immediately. All deadline math here
            # and in _serve_batch is time.monotonic.
            if not self._closed:
                deadline = time.monotonic() + BATCH_WINDOW_S
                while not self._closed and self._queued_pairs() < MAX_BATCH_PAIRS:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._arrived.wait(remaining)
            total = 0
            while self._queue:
                pairs = len(self._queue[0][0].pairs)
                if taken and total + pairs > MAX_BATCH_PAIRS:
                    break
                request, future = self._queue.pop(0)
                taken.append((request, future))
                total += pairs
            obs.gauge("serve.queue.depth", float(len(self._queue)))
        return taken

    def _serve_batch(self, taken: List[Tuple[ScoreRequest, Future]]) -> None:
        # Deadline check happens here — before extraction — so an
        # expired request costs nothing beyond this comparison.
        now = time.monotonic()
        live: List[Tuple[ScoreRequest, Future]] = []
        for request, future in taken:
            if request.expired(now):
                obs.count("serve.deadline.dropped")
                obs.count("serve.rejected")
                future.set_result(
                    Rejected(
                        reason="deadline",
                        detail="deadline expired while queued",
                        request_id=request.request_id,
                    )
                )
            else:
                live.append((request, future))
        if not live:
            return
        obs.count("serve.batches")
        obs.observe("serve.batch.requests", float(len(live)))
        all_pairs = np.concatenate([request.pairs for request, _ in live])
        try:
            combined = self.scorer.score(all_pairs)
        except Exception as exc:  # surface scoring failures per-request
            for _, future in live:
                future.set_exception(exc)
            return
        lo = 0
        for request, future in live:
            hi = lo + len(request.pairs)
            future.set_result(combined.narrow(lo, hi, request_id=request.request_id))
            lo = hi

    def _serve_loop(self) -> None:
        while True:
            taken = self._take_batch()
            if not taken:
                return  # closed and (when draining) queue empty
            self._serve_batch(taken)
