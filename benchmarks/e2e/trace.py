"""In-memory span tracer for the benchmark's ``--trace`` runs.

Layers are timed from the outside: :meth:`Tracer.install` replaces public
functions and methods of ``repro`` with wrappers that record one span per
call, and :meth:`Tracer.restore` puts every original back. Nothing under
``src/`` knows it is being traced.

A span is ``(name, start, end, parent, thread, unit)``. Each thread keeps
its own stack of open spans, so spans opened on the scoring server's
worker thread nest under that thread's spans, never under the load
generator's. ``unit`` groups the spans of one training step, request or
stream window: the workload sets it per thread with :meth:`Tracer.set_unit`,
a top-level ``DataLoader`` ``next()`` starts a new training step, and a
thread that never set one uses the index of its top-level span (one
coalesced server batch).

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "self_times", "TARGETS", "MODEL_LAYERS"]


def _count_links(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("graph.bulk.links", len(args[1]))


def _count_plan_lookup(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("data.store.plan_hits" if result is not None else "data.store.plan_misses")


def _count_scored(tracer: "Tracer", args, kwargs, result) -> None:
    scorer, pairs = args[0], args[1]
    cached = result.cached
    fresh = {(int(u), int(v)) for (u, v), c in zip(pairs, cached) if not c}
    width = scorer.micro_batch
    tracer.add("serve.scorer.pairs", len(cached))
    tracer.add("serve.scorer.cached", int(cached.sum()))
    tracer.add("serve.scorer.fresh", len(fresh))
    tracer.add("serve.scorer.rows", width * -(-len(fresh) // width))


#: ``(module, attribute, span name, observer)``. Callers look module
#: attributes up at call time, so replacing the attribute catches every
#: call made through it — including the lazy ``build_packed_samples``
#: imports inside ``SEALDataset.ensure_many`` and ``LinkScorer``. A
#: ``None`` span name counts calls through the observer without a span.
TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    ("repro.datasets.registry", "load_dataset", "setup.dataset", None),
    ("repro.experiments.runner", "load_dataset", "setup.dataset", None),
    ("repro.data.extraction", "extract_enclosing_subgraphs", "graph.bulk.extract", _count_links),
    ("repro.data.extraction", "build_packed_samples", "data.extraction.pack", None),
    ("repro.data.loader", "collate_from_store", "data.loader.collate", None),
    ("repro.serve.scorer", "collate_from_store", "data.loader.collate", None),
    ("repro.serve.scorer", "k_hop_union", "graph.traversal.k_hop_union", None),
    ("repro.seal.trainer", "cross_entropy", "nn.losses.cross_entropy", None),
    ("repro.seal.trainer", "clip_grad_norm", "nn.optim.clip", None),
    ("repro.seal.trainer", "evaluate", "seal.evaluator.evaluate", None),
    ("repro.seal.evaluator", "evaluate", "seal.evaluator.evaluate", None),
    ("repro.nn.tensor", "Tensor.backward", "nn.tensor.backward", None),
    ("repro.nn.optim", "Adam.step", "nn.optim.adam_step", None),
    ("repro.data.store", "SubgraphStore.put", "data.store.put", None),
    ("repro.data.store", "SubgraphStore.evict", "data.store.evict", None),
    ("repro.data.store", "SubgraphStore.plan_lookup", None, _count_plan_lookup),
    ("repro.serve.scorer", "LinkScorer.score", "serve.scorer.score", _count_scored),
    ("repro.serve.scorer", "LinkScorer.invalidate", "serve.scorer.invalidate", None),
    ("repro.stream.snapshot", "StreamingGraph.apply", "stream.apply", None),
    ("repro.stream.snapshot", "StreamingGraph.snapshot", "stream.snapshot", None),
)

#: The generator method timed per ``next()`` call (time blocked in the loader).
LOADER_ITER = ("repro.data.loader", "DataLoader.__iter__", "data.loader.next")

#: Submodules of a DGCNN-family model whose instance ``forward`` is wrapped.
#: ``Module.__call__`` resolves ``self.forward``, so an instance attribute
#: shadows the class method; the top-level forward's self time is the glue.
MODEL_LAYERS = (
    "convs.0", "convs.1", "convs.2", "sort_pool", "conv1", "pool", "conv2", "lin1", "lin2",
)


class Span:
    """One timed call. ``parent`` is the index of the enclosing span on the
    same thread, or -1; ``end`` stays ``None`` while the call is running."""

    __slots__ = ("name", "start", "end", "parent", "thread", "unit")

    def __init__(self, name, start, end, parent, thread, unit):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.unit = unit


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name: duration minus child coverage.

    Children are the spans whose ``parent`` points at a span; spans on
    other threads never subtract, however their intervals overlap.
    Unfinished spans are skipped.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0 and s.end is not None:
            children[s.parent].append((s.start, s.end))
    out: Dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s.end is None:
            continue
        kids = children.get(i)
        out[s.name] += (s.end - s.start) - (_covered(kids, s.start, s.end) if kids else 0.0)
    return dict(out)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, step: bool = False) -> int:
        stack = self._stack()
        local = self._local
        if step and not stack:
            local.unit = getattr(local, "unit", -1) + 1
            local.explicit = True
        span = Span(name, time.perf_counter(), None, stack[-1] if stack else -1,
                    threading.get_ident(), None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        if getattr(local, "explicit", False):
            span.unit = local.unit
        else:
            span.unit = self.spans[stack[0]].unit if stack else index
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        while stack and stack.pop() != index:
            pass

    @contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` body."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def set_unit(self, unit: int) -> None:
        """Tag the calling thread's following spans with ``unit``."""
        self._local.unit = unit
        self._local.explicit = True

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def clear(self) -> None:
        """Drop recorded spans and counts (wrappers stay installed)."""
        with self._lock:
            self.spans = []
            self.counts = defaultdict(float)
        self._local = threading.local()

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def span_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def total(self, name: str) -> float:
        """Summed duration of finished spans called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name and s.end is not None)

    def write(self, path: Path) -> None:
        """Write spans (times relative to the tracer's creation) and counts."""
        names = sorted({s.name for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [
            [code[s.name], s.start - self.origin,
             None if s.end is None else s.end - self.origin, s.parent, s.thread, s.unit]
            for s in self.spans
        ]
        Path(path).write_text(json.dumps({
            "columns": ["name", "start_s", "end_s", "parent", "thread", "unit"],
            "names": names,
            "spans": rows,
            "counts": dict(self.counts),
        }))

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def wrap(self, fn: Callable, name: Optional[str], observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``observe(tracer, args, kwargs,
        result)`` runs after a successful call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """Generator method ``fn`` recording one span per ``next()``.

        A ``next()`` made outside any other span starts a new step unit.
        """
        tracer = self

        @functools.wraps(fn)
        def traced_iter(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = tracer._open(name, step=True)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    tracer.add("data.loader.batches")
                    yield item
            finally:
                inner.close()

        return traced_iter

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, had_own))

    @staticmethod
    def _resolve(module: str, path: str) -> Tuple[object, str]:
        owner: object = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry and ``DataLoader.__iter__``."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        for module, path, name, observe in TARGETS:
            owner, attr = self._resolve(module, path)
            self._patch(owner, attr, self.wrap(vars(owner)[attr], name, observe))
        module, path, name = LOADER_ITER
        owner, attr = self._resolve(module, path)
        self._patch(owner, attr, self.wrap_iter(vars(owner)[attr], name))

    def instrument_model(self, model) -> None:
        """Wrap the instance ``forward`` of ``model`` and its layers."""
        if not self._patches:
            raise RuntimeError("install() the tracer before instrumenting a model")

        def count_rows(tracer, args, kwargs, result):
            tracer.add("models.rows", args[0].num_graphs)

        for path in MODEL_LAYERS:
            layer = model
            for part in path.split("."):
                layer = layer._modules[part]
            self._patch(layer, "forward", self.wrap(layer.forward, f"models.{path}.fwd"))
        self._patch(model, "forward", self.wrap(model.forward, "models.glue_fwd", count_rows))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def iter_targets() -> Iterable[Tuple[object, str]]:
    """``(owner, attribute)`` of every module or class attribute the tracer wraps."""
    for module, path, _, _ in TARGETS:
        yield Tracer._resolve(module, path)
    yield Tracer._resolve(*LOADER_ITER[:2])
