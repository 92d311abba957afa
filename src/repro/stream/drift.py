"""Distribution-shift metrics for temporal streams.

:class:`DriftTracker` watches the stream one window at a time and
reports four complementary signals, each exported as a ``repro.obs``
gauge so the profile CLI and long-running services can scrape them:

- **label drift** (``stream.drift.label_tv``): total-variation distance
  between consecutive windows' link-label histograms;
- **degree drift** (``stream.drift.degree_tv``): total-variation
  distance between log2-bucketed degree distributions of consecutive
  snapshots;
- **attribute drift** (``stream.drift.attr_shift``): L2 distance
  between consecutive windows' mean edge-attribute vectors;
- **accuracy decay** (``stream.drift.accuracy_decay``): long-horizon
  minus short-horizon EWMA of prequential accuracy — positive when
  recent windows score below the long-run average, i.e. the model is
  falling behind the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import obs
from repro.graph.structure import Graph
from repro.nn.dtype import FLOAT64

__all__ = ["DriftReport", "DriftTracker"]

#: Degree histogram buckets: log2(deg + 1) clipped into this many bins.
_DEGREE_BUCKETS = 24

#: EWMA smoothing factors of the accuracy-decay signal's short and long
#: averages (higher = more reactive)
SHORT_ALPHA = 0.5
LONG_ALPHA = 0.05


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two histograms (normalized)."""
    p = p / max(p.sum(), 1e-12)
    q = q / max(q.sum(), 1e-12)
    return float(0.5 * np.abs(p - q).sum())


@dataclass(frozen=True)
class DriftReport:
    """Per-window drift signals (NaN where a signal has no data yet)."""

    window: int
    label_tv: float
    degree_tv: float
    attr_shift: float
    accuracy: float
    accuracy_short: float
    accuracy_long: float

    @property
    def accuracy_decay(self) -> float:
        """Long-EWMA minus short-EWMA accuracy (positive = decaying)."""
        return self.accuracy_long - self.accuracy_short

    def summary(self) -> dict:
        return {
            "window": self.window,
            "label_tv": self.label_tv,
            "degree_tv": self.degree_tv,
            "attr_shift": self.attr_shift,
            "accuracy": self.accuracy,
            "accuracy_decay": self.accuracy_decay,
        }


class DriftTracker:
    """Accumulate drift signals across prequential windows.

    Accuracy decay compares EWMAs of window accuracy with factors
    ``SHORT_ALPHA`` and ``LONG_ALPHA``. All comparisons are against the
    *previous* window/snapshot, so the tracker is O(1) in stream length.
    """

    def __init__(self):
        self._prev_label_hist: Optional[np.ndarray] = None
        self._prev_degree_hist: Optional[np.ndarray] = None
        self._prev_attr_mean: Optional[np.ndarray] = None
        self._acc_short = float("nan")
        self._acc_long = float("nan")
        self.reports: List[DriftReport] = []

    def update(
        self,
        *,
        labels: Optional[np.ndarray] = None,
        num_classes: int = 0,
        graph: Optional[Graph] = None,
        edge_attr: Optional[np.ndarray] = None,
        accuracy: Optional[float] = None,
    ) -> DriftReport:
        """Fold one window's observations in and return its report."""
        label_tv = float("nan")
        if labels is not None and num_classes > 0:
            hist = np.bincount(
                np.asarray(labels, dtype=np.int64), minlength=num_classes
            ).astype(FLOAT64)
            if self._prev_label_hist is not None:
                label_tv = _tv(self._prev_label_hist, hist)
            self._prev_label_hist = hist

        degree_tv = float("nan")
        if graph is not None:
            deg = np.diff(graph.csr()[0])
            buckets = np.clip(
                np.log2(deg + 1.0).astype(np.int64), 0, _DEGREE_BUCKETS - 1
            )
            hist = np.bincount(buckets, minlength=_DEGREE_BUCKETS).astype(FLOAT64)
            if self._prev_degree_hist is not None:
                degree_tv = _tv(self._prev_degree_hist, hist)
            self._prev_degree_hist = hist

        attr_shift = float("nan")
        if edge_attr is not None and len(edge_attr):
            mean = np.asarray(edge_attr, dtype=FLOAT64).mean(axis=0)
            if self._prev_attr_mean is not None:
                attr_shift = float(np.linalg.norm(mean - self._prev_attr_mean))
            self._prev_attr_mean = mean

        acc = float("nan") if accuracy is None else float(accuracy)
        if accuracy is not None:
            if np.isnan(self._acc_short):
                self._acc_short = self._acc_long = acc
            else:
                self._acc_short += SHORT_ALPHA * (acc - self._acc_short)
                self._acc_long += LONG_ALPHA * (acc - self._acc_long)

        report = DriftReport(
            window=len(self.reports),
            label_tv=label_tv,
            degree_tv=degree_tv,
            attr_shift=attr_shift,
            accuracy=acc,
            accuracy_short=self._acc_short,
            accuracy_long=self._acc_long,
        )
        self.reports.append(report)
        for name, value in (
            ("stream.drift.label_tv", label_tv),
            ("stream.drift.degree_tv", degree_tv),
            ("stream.drift.attr_shift", attr_shift),
            ("stream.drift.accuracy_decay", report.accuracy_decay),
        ):
            if not np.isnan(value):
                obs.gauge(name, value)
        if accuracy is not None:
            obs.observe("stream.prequential.accuracy", acc)
        return report

    def summary(self) -> dict:
        """Aggregate view over every window seen so far."""

        def _agg(values: List[float]) -> dict:
            vals = [v for v in values if not np.isnan(v)]
            if not vals:
                return {"mean": float("nan"), "max": float("nan")}
            return {"mean": float(np.mean(vals)), "max": float(np.max(vals))}

        return {
            "windows": len(self.reports),
            "label_tv": _agg([r.label_tv for r in self.reports]),
            "degree_tv": _agg([r.degree_tv for r in self.reports]),
            "attr_shift": _agg([r.attr_shift for r in self.reports]),
            "accuracy_short_ewma": self._acc_short,
            "accuracy_long_ewma": self._acc_long,
            "accuracy_decay": self._acc_long - self._acc_short,
        }
