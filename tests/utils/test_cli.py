"""CLI dispatcher (python -m repro)."""

import sys

import pytest

from repro.__main__ import main


class TestCli:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "table3" in capsys.readouterr().out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_datasets_table(self, capsys):
        assert main(["datasets"]) == 0
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
    def test_unknown_dataset_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_dispatch_leaves_sys_argv_alone(self, capsys):
        before = list(sys.argv)
        with pytest.raises(SystemExit):
            main(["table3", "--datasets", "nope"])
        assert sys.argv == before

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
            (["datasets", "--bogus"], "unrecognized arguments: --bogus"),
            (["version", "extra"], "unrecognized arguments: extra"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_bad_numbers_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table3", "--scale", "0.05", "--datasets", "primekg"],
            ["epochs", "--dataset", "primekg", "--scale", "0.05"],
            ["samples", "--dataset", "primekg", "--scale", "0.05"],
            ["profile", "--scale", "0.05", "--targets", "5000"],
            ["serve", "--scale", "0.05", "--targets", "5000"],
            ["stream", "--dataset", "primekg", "--scale", "0.05", "--targets", "5000"],
        ],
        ids=lambda v: " ".join(v),
    )
    def test_scale_too_small_for_the_targets_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scale: primekg at scale 0.05 is too small" in err
