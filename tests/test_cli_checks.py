"""The fast checks of scripts/cli_checks.py, each in a fresh interpreter: a child's peak RSS counts its caller's."""

import pytest

from .conftest import cli_checks


@pytest.mark.parametrize("check", [c.__name__ for c in cli_checks["FAST"]])
def test_cli_check(check):
    r = cli_checks["fresh"](check)
    assert r.code == 0, r.err
