"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treesym"


def test_no_claim_rests_on_assert():
    # python -O strips assert statements and sets __debug__ to False, so no check may use either
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def test_one_reference_per_kernel():
    # each reference is written once, in tests/reference.py, and no earlier generation is kept beside it
    tests = Path(__file__).resolve().parent
    previous, outside, defined = [], [], Counter()
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("previous_"):
                    previous.append(f"{path.name}:{node.lineno}")
                if node.name.startswith("reference_"):
                    defined[node.name] += 1
                    if path.name != "reference.py":
                        outside.append(f"{path.name}:{node.lineno}")
    assert len(defined) >= 40
    assert previous == [] and outside == []
    assert [name for name, count in defined.items() if count > 1] == []
