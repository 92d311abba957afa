"""Process-global metrics registry and phase tracing.

The observability substrate every performance change reports against.
Four design constraints drive the shape of this module:

1. **Negligible overhead when disabled.** Instrumentation points live in
   hot loops (per-batch forward/backward, per-link extraction), so
   :func:`trace` must cost no more than a global flag check plus a shared
   no-op context manager when observability is off — which is the
   default.
2. **Nesting-aware phase timers.** Phases entered while another phase is
   open on the same thread record under a ``parent/child`` key, so
   exporters can show both the full call tree and a per-leaf breakdown
   (:meth:`MetricsRegistry.leaf_totals`).
3. **Mergeable.** Every metric merges by addition (gauges by taking the
   newer value), so a worker process records into its own registry and
   ships :meth:`MetricsRegistry.delta` to the parent, which folds it in
   with :func:`merge`. Histograms keep log-spaced bucket counts, not
   samples, so their percentiles cover the whole run at a fixed relative
   error (:data:`HISTOGRAM_RELATIVE_ERROR`) and merge exactly.
4. **No external dependencies.** Counters, gauges and histograms follow
   the Prometheus vocabulary but are plain Python structures a JSON/CSV
   exporter can serialize directly (:mod:`repro.obs.export`).

Threads: each thread records into its own shard, which holds its stack
of open phases, its counters, its histograms and its phase timers. A
phase opened on the :class:`~repro.serve.ScoringServer` worker thread
therefore nests only under that thread's phases, never under whatever
its callers hold open. A shard has one writer, so writes need no lock
(constraint 1) and no update is lost when threads record the same key at
once. Readers (:meth:`MetricsRegistry.snapshot`, :meth:`~MetricsRegistry.delta`
and the read-only ``counters``, ``histograms``, ``phase_totals`` and
``phase_counts`` views) fold the shards together with the same merge
that folds in worker processes. When a thread has exited, the next
registration or read folds its shard into one retired shard, so a pool
that churns threads keeps as many shards as it has live threads. Gauges keep the latest value, which one
shared dict store gives atomically, so they are not sharded.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "HistogramSummary",
    "HISTOGRAM_RELATIVE_ERROR",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "enabled",
    "trace",
    "count",
    "observe",
    "merge",
    "capture",
]

#: Bound on the relative error of every :meth:`HistogramSummary.percentile`.
HISTOGRAM_RELATIVE_ERROR = 0.01
_GAMMA = (1.0 + HISTOGRAM_RELATIVE_ERROR) / (1.0 - HISTOGRAM_RELATIVE_ERROR)
_LOG_GAMMA = math.log(_GAMMA)


def _bucket(value: float) -> float:
    """The representative value of ``value``'s log-spaced bucket.

    Bucket ``i`` holds magnitudes in ``(γ^(i-1), γ^i]`` and is represented
    by ``2γ^i / (γ + 1)``, which is within :data:`HISTOGRAM_RELATIVE_ERROR`
    of everything it holds. Keying by that (signed) value keeps the keys
    sortable and identical in every process. Zero and infinities key as
    themselves.
    """
    if value == 0.0 or math.isinf(value):
        return value
    i = math.ceil(math.log(abs(value)) / _LOG_GAMMA)
    rep = 2.0 * _GAMMA**i / (_GAMMA + 1.0)
    return rep if value > 0.0 else -rep


class HistogramSummary:
    """Streaming summary of one histogram: exact moments plus bucket counts."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: Dict[float, int] = {}

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if not math.isnan(value):  # NaN has no rank
            key = _bucket(value)
            self.buckets[key] = self.buckets.get(key, 0) + 1

    def merge(self, other: "HistogramSummary") -> None:
        """Fold ``other`` in: as if every one of its values were added here."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        # list() copies in one step: ``other`` may belong to a thread that
        # is still recording.
        for key, n in list(other.buckets.items()):
            self.buckets[key] = self.buckets.get(key, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _ranked(self, rank: int) -> float:
        """The value of order statistic ``rank`` (0-based), to bucket precision."""
        seen = 0
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if seen > rank:
                return min(max(key, self.min), self.max)
        return self.max

    def percentile(self, q: float) -> float:
        """Percentile over every observation, within :data:`HISTOGRAM_RELATIVE_ERROR`.

        Interpolates linearly between order statistics like
        ``np.percentile``; ``q=0`` and ``q=100`` are the exact min and max.
        """
        if not self.count:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if q == 0.0:
            return self.min
        if q == 100.0:
            return self.max
        pos = (self.count - 1) * q / 100.0
        lo = int(pos)
        frac = pos - lo
        low = self._ranked(lo)
        return low + (self._ranked(lo + 1) - low) * frac if frac else low

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class _PhaseTimer:
    """Context manager recording one nested phase interval.

    Plain class (not ``@contextmanager``) because generator-based context
    managers cost several times more per entry — this sits on the batch
    hot path.
    """

    __slots__ = ("_registry", "_name", "_key", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_PhaseTimer":
        stack = self._registry._local.stack
        stack.append(self._name)
        self._key = "/".join(stack)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        elapsed = time.perf_counter() - self._start
        local = self._registry._local
        local.shard.phase_totals[self._key] += elapsed
        local.shard.phase_counts[self._key] += 1
        local.stack.pop()


class _NullTimer:
    """Shared no-op context manager returned by :func:`trace` when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _Shard:
    """One thread's counters, histograms and phase timers."""

    __slots__ = ("counters", "histograms", "phase_totals", "phase_counts")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = defaultdict(float)
        self.histograms: Dict[str, HistogramSummary] = {}
        self.phase_totals: Dict[str, float] = defaultdict(float)
        self.phase_counts: Dict[str, int] = defaultdict(int)

    def merge(self, delta: Dict[str, Any]) -> None:
        for name, value in delta["counters"].items():
            self.counters[name] += value
        for name, hist in delta["histograms"].items():
            self.histograms.setdefault(name, HistogramSummary()).merge(hist)
        for key, seconds in delta["phase_totals"].items():
            self.phase_totals[key] += seconds
        for key, calls in delta["phase_counts"].items():
            self.phase_counts[key] += calls

    def delta(self) -> Dict[str, Any]:
        """Copies of everything recorded.

        Safe to call while the owning thread records on: each dict is
        copied in one step, so the copy may trail by an update in flight
        but never raises or tears a dict.
        """
        histograms = {}
        for name, hist in list(self.histograms.items()):
            histograms[name] = HistogramSummary()
            histograms[name].merge(hist)
        return {
            "counters": dict(self.counters),
            "histograms": histograms,
            "phase_totals": dict(self.phase_totals),
            "phase_counts": dict(self.phase_counts),
        }

    def clear(self) -> None:
        self.counters.clear()
        self.histograms.clear()
        self.phase_totals.clear()
        self.phase_counts.clear()


class _ThreadState(threading.local):
    """The calling thread's open phases (outermost first) and its shard."""

    def __init__(self, registry: "MetricsRegistry") -> None:
        self.stack: List[str] = []
        self.shard = _Shard()
        registry._register(self.shard)


class MetricsRegistry:
    """Counters, gauges, histograms and nested phase timers.

    >>> reg = MetricsRegistry()
    >>> reg.count("cache.hits")
    >>> with reg.phase("epoch"):
    ...     with reg.phase("forward"):
    ...         pass
    >>> sorted(reg.phase_totals)
    ['epoch', 'epoch/forward']
    """

    def __init__(self) -> None:
        self.gauges: Dict[str, float] = {}
        # (owning thread, shard) of every thread that has recorded and may
        # record again; shards of exited threads fold into ``_retired``.
        self._shards: List[Tuple[threading.Thread, _Shard]] = []
        self._retired = _Shard()
        self._shards_lock = threading.Lock()
        self._local = _ThreadState(self)

    def _register(self, shard: _Shard) -> None:
        with self._shards_lock:
            self._retire_exited()
            self._shards.append((threading.current_thread(), shard))

    def _retire_exited(self) -> None:
        """Fold the shards of exited threads into ``_retired`` (lock held).

        An exited thread writes no more, so its shard can be read and
        dropped without racing a writer. Registration and every read
        retire, so the shard list stays as long as the live threads that
        have recorded, however many threads come and go.
        """
        live = []
        for thread, shard in self._shards:
            if thread.is_alive():
                live.append((thread, shard))
            else:
                self._retired.merge(shard.delta())
        self._shards[:] = live

    # -- write side ----------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` by ``value``."""
        self._local.shard.counters[name] += value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        histograms = self._local.shard.histograms
        hist = histograms.get(name)
        if hist is None:
            hist = histograms[name] = HistogramSummary()
        hist.add(value)

    def phase(self, name: str) -> _PhaseTimer:
        """Timer context manager; nests under any currently open phase."""
        return _PhaseTimer(self, name)

    def merge(self, delta: Dict[str, Any]) -> None:
        """Fold in another registry's :meth:`delta`.

        Counters, phase seconds and phase calls add and histograms
        merge; gauges take the incoming value. Merged phase seconds are
        summed across processes, so with workers they can exceed wall
        time.
        """
        self._local.shard.merge(delta)
        self.gauges.update(delta["gauges"])

    # -- read side -----------------------------------------------------
    def _merged(self) -> _Shard:
        """Every thread's shard folded into a fresh one."""
        total = _Shard()
        with self._shards_lock:
            self._retire_exited()
            total.merge(self._retired.delta())
            shards = [shard for _, shard in self._shards]
        for shard in shards:
            total.merge(shard.delta())
        return total

    @property
    def counters(self) -> Mapping[str, float]:
        """Read-only view of every thread's counters, summed."""
        return MappingProxyType(self._merged().counters)

    @property
    def histograms(self) -> Mapping[str, HistogramSummary]:
        """Read-only view of every thread's histograms, merged."""
        return MappingProxyType(self._merged().histograms)

    @property
    def phase_totals(self) -> Mapping[str, float]:
        """Read-only view of phase seconds over every thread."""
        return MappingProxyType(self._merged().phase_totals)

    @property
    def phase_counts(self) -> Mapping[str, int]:
        """Read-only view of phase entry counts over every thread."""
        return MappingProxyType(self._merged().phase_counts)

    def leaf_totals(self) -> Dict[str, float]:
        """Seconds per phase aggregated by leaf name across nesting.

        ``train/forward`` and ``eval/forward`` both contribute to
        ``forward`` — the per-operation breakdown the profile CLI emits.
        """
        out: Dict[str, float] = defaultdict(float)
        for key, total in self._merged().phase_totals.items():
            out[key.rsplit("/", 1)[-1]] += total
        return dict(out)

    def leaf_counts(self) -> Dict[str, int]:
        """Entry counts per phase aggregated by leaf name."""
        out: Dict[str, int] = defaultdict(int)
        for key, n in self._merged().phase_counts.items():
            out[key.rsplit("/", 1)[-1]] += n
        return dict(out)

    def delta(self) -> Dict[str, Any]:
        """Everything recorded, as picklable plain data for :meth:`merge`.

        Histograms travel as copies, so recording on after taking the
        delta never changes it.
        """
        total = self._merged()
        return {
            "counters": dict(total.counters),
            "gauges": dict(self.gauges),
            "histograms": total.histograms,
            "phase_totals": dict(total.phase_totals),
            "phase_counts": dict(total.phase_counts),
        }

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of everything recorded (JSON-serializable)."""
        total = self._merged()
        return {
            "counters": dict(total.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.summary() for k, h in total.histograms.items()},
            "phases": {
                k: {"seconds": seconds, "calls": total.phase_counts[k]}
                for k, seconds in total.phase_totals.items()
            },
        }


# -- process-global plumbing -------------------------------------------

_REGISTRY = MetricsRegistry()
_ENABLED = False


def get_registry() -> MetricsRegistry:
    """The process-global registry instrumentation points write into."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (returns the previous one)."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def enable() -> None:
    """Turn instrumentation on (writes go to the global registry)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn instrumentation off (:func:`trace` becomes a shared no-op)."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether instrumentation is currently on."""
    return _ENABLED


def trace(phase: str):
    """Phase-timer context manager — the one call sites should use.

    When observability is disabled (the default) this returns a shared
    no-op whose entry/exit are empty methods, so leaving ``trace`` calls
    in hot loops costs a flag check and nothing else.
    """
    if not _ENABLED:
        return _NULL_TIMER
    return _REGISTRY.phase(phase)


def count(name: str, value: float = 1.0) -> None:
    """Increment a global counter (no-op while disabled)."""
    if _ENABLED:
        _REGISTRY.count(name, value)


def observe(name: str, value: float) -> None:
    """Record a global histogram observation (no-op while disabled)."""
    if _ENABLED:
        _REGISTRY.observe(name, value)


def gauge(name: str, value: float) -> None:
    """Set a global gauge to its latest value (no-op while disabled)."""
    if _ENABLED:
        _REGISTRY.gauge(name, value)


def merge(delta: Dict[str, Any]) -> None:
    """Fold a worker registry's delta into the global one (no-op while disabled)."""
    if _ENABLED:
        _REGISTRY.merge(delta)


class capture:
    """Enable observability for a block and yield a fresh registry.

    >>> import repro.obs as obs
    >>> with obs.capture() as reg:
    ...     with obs.trace("work"):
    ...         pass
    >>> "work" in reg.phase_totals
    True

    On exit the previous registry and enabled-state are restored, so
    captures compose with surrounding instrumentation (e.g. the profile
    CLI capturing inside a user's own session).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._prev_registry: Optional[MetricsRegistry] = None
        self._prev_enabled = False

    def __enter__(self) -> MetricsRegistry:
        self._prev_registry = set_registry(self.registry)
        self._prev_enabled = enabled()
        enable()
        return self.registry

    def __exit__(self, *exc: Any) -> None:
        set_registry(self._prev_registry)
        if not self._prev_enabled:
            disable()
