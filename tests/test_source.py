"""Checks on the package source itself."""

import ast
import json
import sys
from collections import Counter
from pathlib import Path

from .conftest import kept, run_cli, traced

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


def test_one_memory_probe():
    # every memory gate reads tracemalloc through conftest's traced or kept, so each gate measures the same way
    tests = Path(__file__).resolve().parent
    starts = []
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "tracemalloc.start":
                starts.append(path.name)
    assert starts == ["conftest.py"] * 2  # traced and kept


def test_memory_probes_read_what_a_call_allocates():
    # a probe that always read 0 would pass every peak < bound gate
    _, peak = traced(lambda: bytearray(4 << 20))
    assert peak >= 4 << 20
    outside = []
    _, held = kept(lambda: outside.append(bytearray(1 << 20)))
    assert held >= 1 << 20
    _, held = kept(lambda: len(bytearray(1 << 20)))
    assert held < 64 << 10


def test_one_cli_runner():
    # every in-process CLI call goes through conftest's run_cli, so each checks exit code, stdout and stderr
    # the same way; two memory gates call main inside the probe, which must not count the runner's buffers
    tests = Path(__file__).resolve().parent
    calls, stdin_patches = [], []
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            func = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
            targets = map(ast.unparse, node.targets) if isinstance(node, ast.Assign) else ()
            if func in ("main", "cli.main"):
                calls.append(path.name)
            if func.endswith("setattr") and "stdin" in ast.unparse(node) or "sys.stdin" in targets:
                stdin_patches.append(path.name)
    assert calls == ["test_cli.py", "test_rerooting.py"]
    assert stdin_patches == ["test_rerooting.py"]


def test_cli_runner_reads_stdin_stdout_and_stderr():
    # a runner that dropped stdin or stderr would pass many assertions
    stdin = sys.stdin
    code, out, err = run_cli("analyze", "-", "--json", stdin="3\n0 1\n1 2\n")
    assert (code, json.loads(out)["a"], err) == (0, "2", "")
    code, out, err = run_cli("corpus", "--bogus")
    assert (code, out) == (2, "") and err.startswith("usage: treesym")
    assert sys.stdin is stdin
