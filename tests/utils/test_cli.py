"""CLI dispatcher (python -m repro) and the tuning script's flags."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import main

RUN_TUNING = Path(__file__).resolve().parents[2] / "scripts" / "run_tuning.py"


def _load_run_tuning():
    spec = importlib.util.spec_from_file_location("run_tuning", RUN_TUNING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestCli:
    def test_version(self, capsys, repro_main):
        assert repro_main(["version"]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_help(self, capsys, repro_main):
        assert repro_main(["--help"]) == 0
        assert "table3" in capsys.readouterr().out

    def test_no_args_prints_help(self, capsys, repro_main):
        assert repro_main([]) == 0

    def test_unknown_command(self, capsys, repro_main):
        with pytest.raises(SystemExit) as exc:
            repro_main(["frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_datasets_table(self, capsys, repro_main):
        assert repro_main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("PrimeKG", "OGBL-BioKG", "WordNet-18", "Cora"):
            assert name in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "--dataset", "nope"],
            ["stream", "--dataset", "nope"],
            ["serve", "--dataset", "nope"],
            ["epochs", "--dataset", "nope"],
            ["samples", "--dataset", "nope"],
            ["table3", "--datasets", "nope"],
        ],
    )
    def test_unknown_dataset_is_a_usage_error(self, argv, capsys, repro_main):
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_dispatch_leaves_sys_argv_alone(self, capsys, monkeypatch):
        argv = ["repro", "table3", "--datasets", "nope"]
        monkeypatch.setattr(sys, "argv", list(argv))
        with pytest.raises(SystemExit):
            main()
        assert sys.argv == argv

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--smoke", "--micro-batch", "0"], "--micro-batch: must be >= 1"),
            (["serve", "--scale", "-1"], "--scale: must be > 0.0"),
            (["serve", "--targets", "0"], "--targets: must be >= 1"),
            (["serve", "--epochs", "0"], "--epochs: must be >= 1"),
            (["serve", "--clients", "0"], "--clients: must be >= 1"),
            (["serve", "--pairs", "0"], "--pairs: must be >= 1"),
            (["serve", "--queue-depth", "0"], "--queue-depth: must be >= 1"),
            (["serve", "--deadline-ms", "nan"], "--deadline-ms: must be > 0.0"),
            (["stream", "--window", "0"], "--window: must be >= 1"),
            (["stream", "--scale", "-1"], "--scale: must be > 0.0"),
            (["stream", "--targets", "0"], "--targets: must be >= 1"),
            (["stream", "--events", "-1"], "--events: must be >= 0"),
            (["stream", "--add-fraction", "2"], "--add-fraction: must be <= 1.0"),
            (["stream", "--eval-batch-size", "0"], "--eval-batch-size: must be >= 1"),
            (["stream", "--train-epochs", "-1"], "--train-epochs: must be >= 0"),
            (["stream", "--train-window", "0"], "--train-window: must be >= 1"),
            (["stream", "--batch-size", "0"], "--batch-size: must be >= 1"),
            (["stream", "--lr", "0"], "--lr: must be > 0.0"),
            (["table3", "--scale", "-1"], "--scale: must be > 0.0"),
            (["table3", "--scale", "0"], "--scale: must be > 0.0"),
            (["epochs", "--dataset", "cora", "--scale", "-1"], "--scale: must be > 0.0"),
            (["samples", "--dataset", "cora", "--scale", "0"], "--scale: must be > 0.0"),
            (["serve", "--bundle", "no/such/bundle.npz"], "--bundle: no such file"),
            (["ablations", "--which", "bogus"], "--which: invalid choice: 'bogus'"),
            (["ablations", "--which", "drnl", "--scale", "-1"], "--scale: must be > 0.0"),
            (["ablations", "--which", "drnl", "--targets", "0"], "--targets: must be >= 1"),
            (["profile", "--scale", "-1"], "--scale: must be > 0.0"),
            (["profile", "--targets", "0"], "--targets: must be >= 1"),
            (["profile", "--epochs", "0"], "--epochs: must be >= 1"),
            (["profile", "--batch-size", "0"], "--batch-size: must be >= 1"),
            (["profile", "--shards", "1"], "--shards: must be 0 (off) or >= 2, got 1"),
            (["profile", "--resume"], "--resume: needs --checkpoint-dir"),
            (["profile", "--scale", "inf"], "--scale: must be finite, got inf"),
            (["profile", "--targets", "inf"], "--targets: invalid int value: 'inf'"),
            (["stream", "--lr", "inf"], "--lr: must be finite, got inf"),
            (["stream", "--class-drift", "nan"], "--class-drift: must be >= -inf, got nan"),
            (["stream", "--class-drift", "inf"], "--class-drift: must be finite, got inf"),
            (["stream", "--class-drift=-inf"], "--class-drift: must be finite, got -inf"),
            (["datasets", "--bogus"], "unrecognized arguments: --bogus"),
            (["version", "extra"], "unrecognized arguments: extra"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_bad_numbers_are_usage_errors(self, argv, message, capsys, repro_main):
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("profile", "--graph-dir"),
            ("profile", "--checkpoint-dir"),
            ("stream", "--snapshot-dir"),
        ],
    )
    def test_directory_flag_naming_a_file_is_a_usage_error(
        self, command, flag, tmp_path, capsys, repro_main
    ):
        path = tmp_path / "a_file"
        path.write_text("not a directory\n")
        with pytest.raises(SystemExit) as exc:
            repro_main([command, flag, str(path)])
        assert exc.value.code == 2
        assert f"argument {flag}: not a directory: {path}" in capsys.readouterr().err
        assert path.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["table3", "--scale", "0.05", "--datasets", "primekg"],
            ["epochs", "--dataset", "primekg", "--scale", "0.05"],
            ["samples", "--dataset", "primekg", "--scale", "0.05"],
            ["profile", "--scale", "0.05", "--targets", "5000"],
            ["serve", "--scale", "0.05", "--targets", "5000"],
            ["stream", "--dataset", "primekg", "--scale", "0.05", "--targets", "5000"],
            ["ablations", "--which", "subgraph_mode", "--scale", "0.05", "--targets", "5000"],
        ],
        ids=lambda v: " ".join(v),
    )
    def test_scale_too_small_for_the_targets_is_a_usage_error(self, argv, capsys, repro_main):
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scale: primekg at scale 0.05 is too small" in err

    def test_stream_leaves_metrics_recording_as_it_was(self, capsys, repro_main):
        before = obs.enabled()
        argv = ["stream", "--scale", "0.12", "--targets", "40", "--events", "20", "--window", "10"]
        assert repro_main([*argv, "--pretrain-epochs", "0", "--train-epochs", "0"]) == 0
        assert obs.enabled() == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--scale", "-1"], "argument --scale: must be > 0.0"),
        (["--scale", "nan"], "argument --scale: must be > 0.0"),
        (["--datasets", "nope"], "--datasets: invalid choice: 'nope'"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_run_tuning_bad_arguments_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        _load_run_tuning().main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
