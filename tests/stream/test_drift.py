"""DriftTracker: shift math, EWMA decay direction, gauge export."""

import numpy as np
import pytest

import repro.obs as obs
from repro.graph.structure import Graph
from repro.stream import DriftTracker

pytestmark = pytest.mark.stream


class TestLabelDrift:
    def test_identical_windows_have_zero_tv(self):
        t = DriftTracker()
        labels = np.array([0, 0, 1, 2])
        t.update(labels=labels, num_classes=3)
        r = t.update(labels=labels, num_classes=3)
        assert r.label_tv == 0.0

    def test_disjoint_windows_have_tv_one(self):
        t = DriftTracker()
        t.update(labels=np.zeros(4, np.int64), num_classes=2)
        r = t.update(labels=np.ones(4, np.int64), num_classes=2)
        assert r.label_tv == 1.0

    def test_first_window_is_nan(self):
        r = DriftTracker().update(labels=np.zeros(3, np.int64), num_classes=2)
        assert np.isnan(r.label_tv)


class TestDegreeDrift:
    def test_same_snapshot_zero_changed_snapshot_positive(self):
        path = Graph.from_undirected(6, np.array([[0, 1], [1, 2], [2, 3]]))
        star = Graph.from_undirected(6, np.array([[0, i] for i in range(1, 6)]))
        t = DriftTracker()
        t.update(graph=path)
        assert t.update(graph=path).degree_tv == 0.0
        assert t.update(graph=star).degree_tv > 0.0


class TestAttrDrift:
    def test_l2_of_mean_shift(self):
        t = DriftTracker()
        t.update(edge_attr=np.array([[1.0, 0.0], [1.0, 0.0]]))
        r = t.update(edge_attr=np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert r.attr_shift == pytest.approx(np.sqrt(2.0))


class TestAccuracyDecay:
    def test_falling_accuracy_yields_positive_decay(self):
        t = DriftTracker()
        last = None
        for acc in [0.9, 0.9, 0.9, 0.5, 0.4, 0.3]:
            last = t.update(accuracy=acc)
        # Short EWMA tracks the collapse faster than the long one.
        assert last.accuracy_decay > 0.0
        assert t.summary()["accuracy_decay"] > 0.0

    def test_steady_accuracy_has_no_decay(self):
        t = DriftTracker()
        for _ in range(5):
            r = t.update(accuracy=0.8)
        assert r.accuracy_decay == pytest.approx(0.0)


class TestExportAndSummary:
    def test_gauges_exported_only_when_defined(self):
        with obs.capture() as reg:
            t = DriftTracker()
            t.update(labels=np.zeros(3, np.int64), num_classes=2, accuracy=0.5)
            t.update(labels=np.ones(3, np.int64), num_classes=2, accuracy=0.25)
        assert reg.gauges["stream.drift.label_tv"] == 1.0
        assert "stream.drift.degree_tv" not in reg.gauges  # no graphs given
        assert reg.histograms["stream.prequential.accuracy"].count == 2

    def test_summary_aggregates(self):
        t = DriftTracker()
        t.update(labels=np.zeros(3, np.int64), num_classes=2)
        t.update(labels=np.array([0, 1, 1]), num_classes=2)
        t.update(labels=np.zeros(3, np.int64), num_classes=2)
        s = t.summary()
        assert s["windows"] == 3
        assert s["label_tv"]["max"] >= s["label_tv"]["mean"] > 0.0
        assert np.isnan(s["attr_shift"]["mean"])
