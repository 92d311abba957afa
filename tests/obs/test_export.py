"""CSV exporter round-trips, read back by a reference parser."""

import csv
import io
from typing import Union

import pytest

import repro.obs as obs
from repro.obs import to_csv, write_csv
from repro.obs.export import _CSV_HEADER, Snapshot


def _parse_value(text: str) -> Union[int, float]:
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_csv(text_or_path: str) -> Snapshot:
    """Parse a CSV export back into a snapshot dict (inverse of to_csv)."""
    if "\n" in text_or_path or "," in text_or_path:
        text = text_or_path
    else:
        with open(text_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    snap: Snapshot = {"counters": {}, "gauges": {}, "histograms": {}, "phases": {}}
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is not None and tuple(header) != _CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {header!r}")
    for kind, name, field, value in reader:
        parsed = _parse_value(value)
        if kind == "counter":
            snap["counters"][name] = parsed
        elif kind == "gauge":
            snap["gauges"][name] = parsed
        elif kind == "histogram":
            snap["histograms"].setdefault(name, {})[field] = parsed
        elif kind == "phase":
            snap["phases"].setdefault(name, {})[field] = parsed
        else:
            raise ValueError(f"unknown row kind {kind!r}")
    return snap


@pytest.fixture
def populated_registry():
    reg = obs.MetricsRegistry()
    reg.count("cache.hits", 7)
    reg.count("cache.misses", 3)
    reg.gauge("loss", 0.4375)
    for v in (0.001, 0.002, 0.004, 0.010):
        reg.observe("batch_seconds", v)
    with reg.phase("epoch"):
        with reg.phase("forward"):
            pass
    return reg


class TestCsv:
    def test_round_trip_text(self, populated_registry):
        snap = populated_registry.snapshot()
        assert load_csv(to_csv(populated_registry)) == snap

    def test_round_trip_file(self, populated_registry, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_csv(populated_registry, path)
        assert load_csv(path) == populated_registry.snapshot()

    def test_header_and_kinds(self, populated_registry):
        text = to_csv(populated_registry)
        lines = text.strip().splitlines()
        assert lines[0] == "kind,name,field,value"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"counter", "gauge", "histogram", "phase"}

    def test_empty_registry_round_trips(self):
        reg = obs.MetricsRegistry()
        assert load_csv(to_csv(reg)) == reg.snapshot()
