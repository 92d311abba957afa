"""Every ``python -m repro`` command starts clean under ``python -W error``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
COMMANDS = (
    "table3", "epochs", "samples", "ablations", "datasets", "profile", "serve", "stream", "version",
)


@pytest.mark.parametrize("command", COMMANDS)
def test_help_runs_without_warnings(command):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "repro", command, "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert f"usage: repro {command}" in proc.stdout
