"""The golden CLI digests of scripts/golden_digests.py, one test per input: the table is defined there."""

import pytest

from .conftest import golden_digests

GOLDEN, cases, digest = golden_digests["GOLDEN"], golden_digests["cases"], golden_digests["digest"]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases())


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_cli_output_matches_golden(label):
    assert digest(cases()[label]) == GOLDEN[label]
