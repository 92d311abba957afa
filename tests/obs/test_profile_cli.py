"""The ``python -m repro profile`` subcommand (CI smoke target)."""

import json

import pytest

from repro.obs.profile import CORE_PHASES, run_profile


def metric(report, name, default=0.0):
    """Metric ``name`` from the report's namespace-grouped section."""
    return report["metrics"].get(name.split(".")[0], {}).get(name, default)


@pytest.fixture(scope="module")
def smoke_report():
    """One shared --smoke run (the expensive part of this module)."""
    return run_profile(scale=0.12, num_targets=40, epochs=1, batch_size=8)


class TestRunProfile:
    def test_core_phases_present(self, smoke_report):
        for phase in CORE_PHASES:
            assert phase in smoke_report["phases"], phase
            assert smoke_report["phases"][phase]["seconds"] >= 0.0
            assert smoke_report["phases"][phase]["calls"] >= 1

    def test_train_breakdown(self, smoke_report):
        ps = smoke_report["train"]["phase_seconds"]
        for key in ("forward", "backward", "optimizer", "data", "eval", "total"):
            assert key in ps
        assert ps["total"] >= ps["forward"]

    def test_cache_fully_populated(self, smoke_report):
        cache = smoke_report["cache"]
        assert cache["size"] == cache["capacity"] == cache["misses"]

    def test_report_is_json_serializable(self, smoke_report):
        text = json.dumps(smoke_report)
        assert "extraction" in text

    def test_obs_left_disabled(self, smoke_report):
        import repro.obs as obs

        assert not obs.enabled()

    def test_metrics_grouped_by_namespace(self, smoke_report):
        snap = smoke_report["snapshot"]
        sections = smoke_report["metrics"]
        for kind in ("counters", "gauges", "histograms"):
            for name, value in snap[kind].items():
                assert sections[name.split(".")[0]][name] == value, name
        for name in ("extraction.batched.links", "serve.requests", "serve.pairs"):
            assert metric(smoke_report, name) > 0.0, name
        assert metric(smoke_report, "serve.latency_seconds")["count"] >= 1
        assert metric(smoke_report, "serve.queue.peak_depth") >= 1.0
        assert metric(smoke_report, "stream.events.generated") > 0.0
        assert metric(smoke_report, "stream.edges.live") > 0.0

    def test_hit_rate_derived_for_every_hits_misses_pair(self, smoke_report):
        counters = smoke_report["snapshot"]["counters"]
        stems = {
            name.rsplit(".", 1)[0]
            for name in counters
            if name.endswith((".hits", ".misses"))
        }
        assert {"kernels.plan_cache", "seal.cache", "serve.cache"} <= stems
        for stem in stems:
            hits = counters.get(f"{stem}.hits", 0.0)
            lookups = hits + counters.get(f"{stem}.misses", 0.0)
            assert metric(smoke_report, f"{stem}.hit_rate") == pytest.approx(
                hits / lookups
            )

    def test_kernel_and_extraction_timers_are_phases(self, smoke_report):
        for phase in ("kernel.segment_sum", "extract.bfs", "extract.pack", "stream"):
            assert smoke_report["phases"][phase]["calls"] >= 1, phase

    def test_checkpoint_section_disabled_by_default(self, smoke_report):
        assert smoke_report["workload"]["checkpoint_dir"] is None
        assert "checkpoint" not in smoke_report["metrics"]

    def test_store_section_without_graph_dir(self, smoke_report):
        wl = smoke_report["workload"]
        assert wl["graph_source"] == "generated"
        assert wl["graph_dir"] is None
        assert metric(smoke_report, "store.graph.saves") == 0.0
        assert metric(smoke_report, "store.mmap.opens") == 0.0

    def test_cores_reported(self, smoke_report):
        cores = smoke_report["cores"]
        assert cores["physical"] >= 1
        assert 1 <= cores["usable"] <= cores["physical"]

    def test_distributed_section_disabled_by_default(self, smoke_report):
        assert smoke_report["workload"]["processes"] == 0
        assert "distributed" not in smoke_report["metrics"]
        assert smoke_report["warnings"] == []


class TestProfileShards:
    def test_shards_run_populates_distributed_section(self):
        from repro.data.loader import usable_cores

        report = run_profile(
            scale=0.12, num_targets=40, epochs=1, batch_size=8, shards=2
        )
        assert report["workload"]["shards"] == 2
        assert metric(report, "distributed.steps") >= 1.0
        assert (
            metric(report, "distributed.partition.owned_links")
            == report["workload"]["num_links"]
        )
        assert metric(report, "distributed.partition.replication_factor") >= 1.0
        # Every shard step of both ranks is recorded, in worker processes
        # or in-process alike, and every training link once per epoch.
        steps = metric(report, "distributed.steps")
        assert metric(report, "distributed.shard.step_seconds")["count"] == 2 * steps
        eval_links = metric(report, "seal.eval.links") / metric(report, "seal.eval.calls")
        assert (
            metric(report, "distributed.shard.links")
            == report["workload"]["num_links"] - eval_links
        )
        if usable_cores() >= 2:
            assert report["workload"]["processes"] == 2
        else:
            # Degraded in-process: same numbers, and the report says why.
            assert report["workload"]["processes"] == 0
            assert any("--shards" in w for w in report["warnings"])
        for phase in CORE_PHASES:
            assert phase in report["phases"], phase


class TestProfileGraphDir:
    def test_first_run_saves_second_run_mmaps(self, tmp_path):
        kwargs = dict(scale=0.12, num_targets=40, epochs=1, batch_size=8)
        first = run_profile(graph_dir=str(tmp_path), **kwargs)
        assert first["workload"]["graph_source"] == "generated"
        assert metric(first, "store.graph.saves") == 1.0
        assert (tmp_path / "task.npz").exists()

        second = run_profile(graph_dir=str(tmp_path), **kwargs)
        assert second["workload"]["graph_source"] == "mmap"
        assert metric(second, "store.mmap.opens") >= 1.0
        assert metric(second, "store.mmap.extracted_links") > 0.0
        # Identical workload either way — same dataset, same results.
        assert second["eval"] == first["eval"]
        assert second["workload"]["num_links"] == first["workload"]["num_links"]


@pytest.mark.fault
class TestProfileCheckpoint:
    def test_checkpoint_dir_wires_crash_safety(self, tmp_path):
        from repro.seal.checkpoint import list_checkpoints

        report = run_profile(
            scale=0.12, num_targets=40, epochs=1, batch_size=8,
            checkpoint_dir=str(tmp_path),
        )
        assert report["workload"]["checkpoint_dir"] == str(tmp_path)
        assert metric(report, "checkpoint.writes") >= 1.0
        assert metric(report, "checkpoint.bytes") > 0.0
        assert metric(report, "checkpoint.write_seconds")["count"] >= 1
        assert list_checkpoints(tmp_path)
        # Rerun with --resume: training is already complete, so the
        # report records the resumed-from epoch and writes nothing new.
        resumed = run_profile(
            scale=0.12, num_targets=40, epochs=1, batch_size=8,
            checkpoint_dir=str(tmp_path), resume=True,
        )
        assert metric(resumed, "checkpoint.resumes") == 1.0
        assert metric(resumed, "checkpoint.resumed_from_epoch") == 1.0


class TestCliSmoke:
    def test_profile_smoke_emits_breakdown(self, capsys, tmp_path, repro_main):
        json_path = str(tmp_path / "report.json")
        csv_path = str(tmp_path / "report.csv")
        assert repro_main(["profile", "--smoke", "--json", json_path, "--csv", csv_path]) == 0
        report = json.loads(capsys.readouterr().out)
        for phase in CORE_PHASES:
            assert phase in report["phases"], phase
        # Side outputs match stdout.
        with open(json_path) as fh:
            assert json.load(fh)["phases"].keys() == report["phases"].keys()
        with open(csv_path) as fh:
            assert fh.readline().strip() == "kind,name,field,value"

    def test_profile_in_help(self, capsys, repro_main):
        assert repro_main(["--help"]) == 0
        assert "profile" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--batch-size", "0"], "--batch-size: must be >= 1"),
            (["--epochs", "-1"], "--epochs: must be >= 1"),
            (["--workers", "2"], "unrecognized arguments: --workers 2"),
            (["--scale", "0"], "--scale: must be > 0.0"),
            (["--scale", "nan"], "--scale: must be > 0.0"),
            (["--targets", "0"], "--targets: must be >= 1"),
            (["--shards", "1"], "--shards: must be 0 (off) or >= 2"),
            (["--resume"], "--resume: needs --checkpoint-dir"),
        ],
        ids=[
            "batch-size", "epochs", "workers", "scale", "scale-nan", "targets", "shards", "resume",
        ],
    )
    def test_bad_arguments_are_usage_errors(self, argv, message, capsys, repro_main):
        with pytest.raises(SystemExit) as exc:
            repro_main(["profile", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
