"""The ``python -m repro profile`` subcommand (CI smoke target)."""

import json

import pytest

from repro.__main__ import main
from repro.obs.profile import CORE_PHASES, run_profile


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

    def test_checkpoint_section_disabled_by_default(self, smoke_report):
        ck = smoke_report["checkpoint"]
        assert ck["enabled"] is False
        assert ck["writes"] == 0.0

    def test_store_section_without_graph_dir(self, smoke_report):
        st = smoke_report["store"]
        assert st["graph_source"] == "generated"
        assert st["graph_dir"] is None
        assert st["graph_saves"] == 0.0 and st["mmap_opens"] == 0.0

    def test_cores_reported(self, smoke_report):
        cores = smoke_report["cores"]
        assert cores["physical"] >= 1
        assert 1 <= cores["usable"] <= cores["physical"]

    def test_distributed_section_disabled_by_default(self, smoke_report):
        d = smoke_report["distributed"]
        assert d["enabled"] is False
        assert d["steps"] == 0.0
        assert smoke_report["warnings"] == []


class TestProfileShards:
    def test_shards_run_populates_distributed_section(self):
        from repro.data.loader import usable_cores

        report = run_profile(
            scale=0.12, num_targets=40, epochs=1, batch_size=8, shards=2
        )
        d = report["distributed"]
        assert d["enabled"] is True
        assert d["num_shards"] == 2
        assert d["steps"] >= 1.0
        assert d["partition"]["owned_links"] == report["workload"]["num_links"]
        assert d["partition"]["replication_factor"] >= 1.0
        assert d["shard_step_seconds"]["count"] >= 1
        if usable_cores() >= 2:
            assert d["processes"] == 2
        else:
            # Degraded in-process: same numbers, and the report says why.
            assert d["processes"] == 0
            assert any("--shards" in w for w in report["warnings"])
        if d["processes"] == 0:
            # In-process sharding keeps the whole per-phase breakdown;
            # with real worker processes the forward/backward work lives
            # in the workers and is reported via shard_step_seconds.
            for phase in CORE_PHASES:
                assert phase in report["phases"], phase

    def test_worker_overcommit_warns(self):
        from repro.data.loader import usable_cores

        report = run_profile(
            scale=0.12,
            num_targets=40,
            epochs=1,
            batch_size=8,
            num_workers=usable_cores() + 1,
        )
        assert any("--workers" in w for w in report["warnings"])


class TestProfileGraphDir:
    def test_first_run_saves_second_run_mmaps(self, tmp_path):
        kwargs = dict(scale=0.12, num_targets=40, epochs=1, batch_size=8)
        first = run_profile(graph_dir=str(tmp_path), **kwargs)
        st = first["store"]
        assert st["graph_source"] == "generated"
        assert st["graph_saves"] == 1.0
        assert (tmp_path / "task.npz").exists()

        second = run_profile(graph_dir=str(tmp_path), **kwargs)
        st = second["store"]
        assert st["graph_source"] == "mmap"
        assert st["mmap_opens"] >= 1.0
        assert st["mmap_extracted_links"] > 0.0
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
        ck = report["checkpoint"]
        assert ck["enabled"] is True
        assert ck["writes"] >= 1.0
        assert ck["bytes"] > 0.0
        assert ck["write_seconds"]["count"] >= 1
        assert list_checkpoints(tmp_path)
        # Rerun with --resume: training is already complete, so the
        # report records the resumed-from epoch and writes nothing new.
        resumed = run_profile(
            scale=0.12, num_targets=40, epochs=1, batch_size=8,
            checkpoint_dir=str(tmp_path), resume=True,
        )
        assert resumed["checkpoint"]["resumes"] == 1.0
        assert resumed["checkpoint"]["resumed_from_epoch"] == 1.0


class TestCliSmoke:
    def test_profile_smoke_emits_breakdown(self, capsys, tmp_path):
        json_path = str(tmp_path / "report.json")
        csv_path = str(tmp_path / "report.csv")
        assert main(["profile", "--smoke", "--json", json_path, "--csv", csv_path]) == 0
        report = json.loads(capsys.readouterr().out)
        for phase in CORE_PHASES:
            assert phase in report["phases"], phase
        # Side outputs match stdout.
        with open(json_path) as fh:
            assert json.load(fh)["phases"].keys() == report["phases"].keys()
        with open(csv_path) as fh:
            assert fh.readline().strip() == "kind,name,field,value"

    def test_profile_in_help(self, capsys):
        assert main(["--help"]) == 0
        assert "profile" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--batch-size", "0"], "--batch-size: must be >= 1"),
            (["--epochs", "-1"], "--epochs: must be >= 1"),
            (["--workers", "-1"], "--workers: must be >= 0"),
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
    def test_bad_arguments_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
