"""Smoke runs of the sweep scripts, which call the library's composite paths."""

import subprocess
import sys

import pytest

from .conftest import ROOT, subprocess_env


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/theorem_sweep.py", "--max-n", "6", "--random-count", "20", "--max-random-n", "12", "--extremal", "2"],
        ["scripts/ray_extension_sweep.py", "--count", "20"],
    ],
    ids=["theorem_sweep", "ray_extension_sweep"],
)
def test_sweep_script_exits_0(argv, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / argv[0]), *argv[1:]],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
