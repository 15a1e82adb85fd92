"""Checks on the package source itself."""

import ast
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from treesym import AutomorphismLimitExceeded, EdgeListParseError, OracleSizeError, brute_asym, enumerate_automorphisms
from treesym import parse_edge_list
from treesym.coloring import _to_coloring

from .conftest import Raised, kept, outcome, recorded, run_cli, star, traced

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "treesym"


def nodes(folder: Path, pattern: str):
    """``(file name, node)`` for every AST node of each file in ``folder`` matching ``pattern``, files in name order."""
    for path in sorted(folder.glob(pattern)):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def test_no_claim_rests_on_assert():
    # python -O strips assert statements and sets __debug__ to False, so no check may use either
    found = []
    for name, node in nodes(SRC, "*.py"):
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
            found.append(f"{name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def test_one_json_writer():
    # every JSON command writes through cli._write_json: json.dumps with an indent runs the pure-Python encoder
    found, writes = [], 0
    for _, node in nodes(SRC, "cli.py"):
        func = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
        if func.rpartition(".")[2] in ("dumps", "dump") or "json" in names or getattr(node, "module", "") == "json":
            found.append(f"cli.py:{node.lineno}: {ast.unparse(node)}")
        writes += func == "_write_json"
    assert found == []
    assert writes == 5  # analyze --json, oracle, corpus --check --json, corpus, treelike


def test_one_reference_per_kernel():
    # each reference is written once, in tests/reference.py, and no earlier generation is kept beside it
    previous, outside, defined = [], [], Counter()
    for name, node in nodes(TESTS, "*.py"):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("previous_"):
                previous.append(f"{name}:{node.lineno}")
            if node.name.startswith("reference_"):
                defined[node.name] += 1
                if name != "reference.py":
                    outside.append(f"{name}:{node.lineno}")
    assert len(defined) >= 40
    assert previous == [] and outside == []
    assert [name for name, count in defined.items() if count > 1] == []


def test_one_memory_probe():
    # every memory gate reads tracemalloc through conftest's traced or kept, so each gate measures the same way
    starts = [name for name, node in nodes(TESTS, "*.py")
              if isinstance(node, ast.Attribute) and ast.unparse(node) == "tracemalloc.start"]
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
    # the suite starts treesym through the scripts' two runners, which conftest loads: run_cli in this process and
    # run_python in a child, so each checks exit code, stdout and stderr the same way. Two memory gates call main
    # inside the probe, which must not count the runner's buffers; test_cli's written captures the JSON writer alone
    calls, stdin_patches, redirects, children = [], [], [], []
    starts = re.compile(r"\b(subprocess|multiprocessing|os\.(system|popen|fork|exec|spawn|posix_spawn))")
    for name, node in nodes(TESTS, "*.py"):
        func = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
        targets = map(ast.unparse, node.targets) if isinstance(node, ast.Assign) else ()
        if func in ("main", "cli.main"):
            calls.append(name)
        if func.endswith("setattr") and "stdin" in ast.unparse(node) or "sys.stdin" in targets:
            stdin_patches.append(name)
        if func.endswith(("redirect_stdout", "redirect_stderr")):
            redirects.append(name)
        code = ast.unparse(node) if isinstance(node, (ast.Name, ast.Attribute, ast.Import, ast.ImportFrom)) else ""
        if starts.search(code):
            children.append(f"{name}:{node.lineno}")
    assert calls == ["test_cli.py", "test_rerooting.py"]
    assert stdin_patches == ["test_rerooting.py"]
    assert redirects == ["test_cli.py"]
    assert children == []


def test_cli_runner_reads_stdin_stdout_and_stderr():
    # a runner that dropped stdin or stderr would pass many assertions
    stdin = sys.stdin
    code, out, err = run_cli("analyze", "-", "--json", stdin="3\n0 1\n1 2\n")
    assert (code, json.loads(out)["a"], err) == (0, "2", "")
    code, out, err = run_cli("corpus", "--bogus")
    assert (code, out) == (2, "") and err.startswith("usage: treesym")
    assert sys.stdin is stdin


def test_one_call_recorder():
    # every call-count gate patches its targets through conftest's recorded. Three recorders stay their own:
    # test_canon's count_sorts shadows the builtin sorted, which no module binds, and test_coloring's
    # _colored_ids and test_oracle's images_listed read what an iterator or a generator hands on
    found = []
    for name, node in nodes(TESTS, "test_*.py"):
        func = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
        lambdas = [arg for arg in node.args if isinstance(arg, ast.Lambda)] if func.endswith("setattr") else []
        appends = [n for arg in lambdas for n in ast.walk(arg) if getattr(n, "attr", None) == "append"]
        modules = isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.modules"
        if modules or func == "staticmethod" or appends or isinstance(node, ast.Nonlocal):
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_call_recorder_records_each_call_and_restores_the_originals(monkeypatch, p3):
    # a recorder that recorded nothing would pass every calls == [] gate
    import treesym
    from treesym import canon, cli, coloring, trees
    from treesym.canon import TreeAnalysis

    bfs, of, root_at = trees._bfs, vars(TreeAnalysis)["of"], trees.root_at
    sweeps = recorded(monkeypatch, (trees, "_bfs"))
    assert trees._bfs(p3.adj, 0) == bfs(p3.adj, 0) and sweeps == [("_bfs", (p3.adj, 0))]
    analyses = recorded(monkeypatch, (TreeAnalysis, "of"))
    rt = root_at(p3, 1)
    assert isinstance(TreeAnalysis.of(rt), TreeAnalysis) and analyses == [("of", (rt,))]
    rootings = recorded(monkeypatch, root_at)
    assert canon.root_at(p3, 2).root == 2 and coloring.root_at(p3, 0).root == 0
    assert rootings == [("root_at", (p3, 2)), ("root_at", (p3, 0))]
    monkeypatch.undo()
    assert trees._bfs is bfs and vars(TreeAnalysis)["of"] is of
    assert [m.__name__ for m in (treesym, canon, cli, coloring, trees) if m.root_at is not root_at] == []


def test_one_outcome_reader():
    # every "what each side returned, or what it raised" goes through conftest's outcome, so two raises are the
    # same only with the same type, message, attributes, cause and yields. One handler stays: the unranking check
    # asks whether the reference failed its internal check, an AssertionError, which outcome never catches
    found = []
    for name, node in nodes(TESTS, "test_*.py"):
        item = ast.unparse(node) if isinstance(node, ast.withitem) else ""
        if isinstance(node, ast.ExceptHandler) or item.startswith("pytest.raises(") and item.endswith(" as want"):
            found.append(f"{name}: {ast.unparse(node).splitlines()[0]}")
    assert found == ["test_coloring.py: except AssertionError:"]


def test_outcome_keeps_each_part_of_a_raise():
    # an outcome that turned every raise into the same value would pass every differential test
    assert outcome(divmod, 7, 2) == (3, 1) and not isinstance(outcome(divmod, 7, 2), Raised)
    assert outcome(lambda: (c for c in "ab")) == ["a", "b"]
    assert outcome(parse_edge_list, "3\n0 1\n0 1\n") == Raised(
        EdgeListParseError, "line 3: duplicate edge (0, 1)", (("line", 3),))
    assert outcome(brute_asym, star(3), aut_limit=1) == Raised(
        OracleSizeError, "automorphism count exceeds limit 1", cause=AutomorphismLimitExceeded)
    assert outcome(enumerate_automorphisms, star(4), limit=2, catch=AutomorphismLimitExceeded) == Raised(
        AutomorphismLimitExceeded, "automorphism count exceeds limit 2", (("limit", 2),),
        yielded=((0, 1, 2, 3), (0, 1, 3, 2)))
    with pytest.raises(AutomorphismLimitExceeded):  # not a ValueError, so not caught by default
        outcome(enumerate_automorphisms, star(4), limit=2)
    with pytest.raises(AssertionError, match="^coloring left a vertex uncolored$"):  # an internal check
        outcome(_to_coloring, [None], catch=Exception)
