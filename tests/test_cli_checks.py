"""The fast checks of scripts/cli_checks.py, each in a fresh interpreter: a child's peak RSS counts its caller's."""

import runpy
import subprocess
import sys

import pytest

from .conftest import ROOT, subprocess_env

script = runpy.run_path(str(ROOT / "scripts" / "cli_checks.py"))


@pytest.mark.parametrize("check", [c.__name__ for c in script["FAST"]])
def test_cli_check(check):
    run = f"import runpy; runpy.run_path({script['__file__']!r})[{check!r}]()"
    proc = subprocess.run([sys.executable, "-c", run], env=subprocess_env(), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
