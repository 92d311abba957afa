"""Opt-in regression gates: K-process data-parallel training, the float32
policy and the streaming paths must never net-lose to their baselines.

Runs ``scripts/check_bench.py`` against the committed
``results/BENCH_distributed.json`` / ``results/BENCH_dtype.json`` /
``results/BENCH_stream.json`` histories.
Marked ``bench_gate`` and kept out of tier-1 (``testpaths``
excludes ``benchmarks/``); select it with

    PYTHONPATH=src python -m pytest benchmarks -m bench_gate

Skips — rather than fails — when no benchmark history exists yet, so a
fresh checkout can still run the benchmark directory end to end.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DISTRIBUTED_RESULTS = (
    Path(__file__).resolve().parent.parent / "results" / "BENCH_distributed.json"
)

sys.path.insert(0, str(SCRIPTS))
import check_bench  # noqa: E402


@pytest.mark.bench_gate
def test_gate_reports_missing_file(tmp_path):
    out = io.StringIO()
    assert check_bench.judge("dtype", tmp_path / "nope.json", out=out) == 1
    assert "not found" in out.getvalue()


@pytest.mark.bench_gate
def test_results_override_needs_a_single_suite(tmp_path):
    """One history file cannot stand in for every suite's history."""
    with pytest.raises(SystemExit) as exc:
        check_bench.main(["--suite", "all", "--results", str(tmp_path / "x.json")])
    assert exc.value.code == 2


@pytest.mark.bench_gate
def test_data_parallel_throughput_has_not_regressed():
    if not DISTRIBUTED_RESULTS.exists():
        pytest.skip(
            "no BENCH_distributed.json yet — run the distributed microbenchmark"
        )
    out = io.StringIO()
    status = check_bench.judge("distributed", DISTRIBUTED_RESULTS, out=out)
    print(out.getvalue())
    assert status == 0, out.getvalue()


@pytest.mark.bench_gate
def test_distributed_gate_fails_below_speedup_floor(tmp_path):
    """The distributed gate bites: 1.2x at K=4 is below the 1.5x bar."""
    bad = tmp_path / "BENCH_distributed.json"
    bad.write_text(
        '[{"benchmark": "distributed", "unix_time": 0, "usable_cores": 4, '
        '"records": ['
        '{"kernel": "data_parallel_epoch", "num_shards": 4, '
        '"usable_cores": 4, "speedup": 1.2}'
        "]}]"
    )
    out = io.StringIO()
    assert check_bench.judge("distributed", bad, out=out) == 1
    assert "FAIL" in out.getvalue()


@pytest.mark.bench_gate
def test_distributed_gate_skips_single_core_hosts(tmp_path):
    """Single-core runs carry an envelope but no records: skip, pass."""
    lone = tmp_path / "BENCH_distributed.json"
    lone.write_text(
        '[{"benchmark": "distributed", "unix_time": 0, "usable_cores": 1, '
        '"records": []}]'
    )
    out = io.StringIO()
    assert check_bench.judge("distributed", lone, out=out) == 0
    assert "skipped" in out.getvalue()


DTYPE_RESULTS = Path(__file__).resolve().parent.parent / "results" / "BENCH_dtype.json"


@pytest.mark.bench_gate
def test_float32_speedup_has_not_regressed():
    if not DTYPE_RESULTS.exists():
        pytest.skip("no BENCH_dtype.json yet — run the dtype microbenchmark")
    out = io.StringIO()
    status = check_bench.judge("dtype", DTYPE_RESULTS, out=out)
    print(out.getvalue())
    assert status == 0, out.getvalue()


@pytest.mark.bench_gate
def test_dtype_gate_judges_each_group_separately(tmp_path):
    """A big layer win must not rescue a net-slower epoch."""
    bad = tmp_path / "BENCH_dtype.json"
    bad.write_text(
        '[{"benchmark": "dtype", "unix_time": 0, "records": ['
        '{"kernel": "gat_fwd_bwd", "N": 2000, "speedup": 3.0},'
        '{"kernel": "train_epoch", "train_links": 168, "speedup": 1.1}'
        "]}]"
    )
    out = io.StringIO()
    assert check_bench.judge("dtype", bad, out=out) == 1
    assert "train_epoch" in out.getvalue() and "FAIL" in out.getvalue()


@pytest.mark.bench_gate
def test_dtype_gate_fails_on_missing_group(tmp_path):
    """A run that recorded only one group is broken history, not a pass."""
    partial = tmp_path / "BENCH_dtype.json"
    partial.write_text(
        '[{"benchmark": "dtype", "unix_time": 0, "records": ['
        '{"kernel": "gat_fwd_bwd", "N": 2000, "speedup": 1.8}'
        "]}]"
    )
    out = io.StringIO()
    assert check_bench.judge("dtype", partial, out=out) == 1
    assert "no usable train_epoch" in out.getvalue()


STREAM_RESULTS = (
    Path(__file__).resolve().parent.parent / "results" / "BENCH_stream.json"
)


@pytest.mark.bench_gate
def test_streaming_speedups_have_not_regressed():
    if not STREAM_RESULTS.exists():
        pytest.skip("no BENCH_stream.json yet — run the stream microbenchmark")
    out = io.StringIO()
    status = check_bench.judge("stream", STREAM_RESULTS, out=out)
    print(out.getvalue())
    assert status == 0, out.getvalue()


@pytest.mark.bench_gate
def test_stream_gate_judges_each_group_separately(tmp_path):
    """A huge snapshot win must not rescue delta rescoring falling
    under its 3x acceptance bar."""
    bad = tmp_path / "BENCH_stream.json"
    bad.write_text(
        '[{"benchmark": "stream", "unix_time": 0, "records": ['
        '{"kernel": "delta_rescoring", "working_set": 64, "speedup": 2.0},'
        '{"kernel": "snapshot_apply", "events": 600, "speedup": 10.0}'
        "]}]"
    )
    out = io.StringIO()
    assert check_bench.judge("stream", bad, out=out) == 1
    assert "delta_rescoring" in out.getvalue() and "FAIL" in out.getvalue()


@pytest.mark.bench_gate
def test_stream_gate_fails_on_missing_group(tmp_path):
    """A run that recorded only one kernel is broken history, not a pass."""
    partial = tmp_path / "BENCH_stream.json"
    partial.write_text(
        '[{"benchmark": "stream", "unix_time": 0, "records": ['
        '{"kernel": "delta_rescoring", "working_set": 64, "speedup": 4.5}'
        "]}]"
    )
    out = io.StringIO()
    assert check_bench.judge("stream", partial, out=out) == 1
    assert "no usable snapshot_apply" in out.getvalue()
