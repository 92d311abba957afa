"""CLI dispatcher (python -m repro)."""

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
    def test_unknown_dataset_is_a_usage_error(self, argv, capsys, monkeypatch):
        # Some commands hand their arguments on through sys.argv.
        monkeypatch.setattr("sys.argv", ["repro"])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
