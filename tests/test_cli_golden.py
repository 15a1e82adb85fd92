"""The golden CLI digests of scripts/golden_digests.py, one test per input: the table is defined there."""

import runpy

import pytest

from .conftest import ROOT

golden = runpy.run_path(str(ROOT / "scripts" / "golden_digests.py"))
GOLDEN, cases, digest = golden["GOLDEN"], golden["cases"], golden["digest"]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases())


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_cli_output_matches_golden(label):
    assert digest(cases()[label]) == GOLDEN[label]
