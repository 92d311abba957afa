"""Every experiments CLI starts clean under ``python -W error -m``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize("module", ["table3", "epochs", "samples", "ablations"])
def test_help_runs_without_warnings(module):
    # Importing the package must not import the CLI module ahead of runpy,
    # which warns "found in sys.modules after import of package".
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", f"repro.experiments.{module}", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
