"""One table of malformed edge sets through every constructor, parser and CLI reader.

Library messages and CLI stderr were recorded with the code that kept three
copies of the edge check; only the constructors' out-of-range message gained
its ``0..n-1`` bound since.
"""

import pytest

from treesym import EdgeListParseError, RootedGraph, Tree, parse_edge_list, parse_graph_edge_list

from .conftest import run_cli

CASES = {
    "out_of_range": (3, [(0, 1), (1, 3)]),
    "self_loop": (3, [(0, 1), (2, 2)]),
    "duplicate": (3, [(0, 1), (1, 0)]),
    "too_few": (4, [(0, 1), (1, 2)]),
    "disconnected": (5, [(0, 1), (1, 2), (2, 0), (3, 4)]),
}

VE, PE = ValueError, EdgeListParseError

# case: (Tree.from_edges, RootedGraph.from_edges, parse_edge_list, parse_graph_edge_list)
EXPECTED = {
    "out_of_range": (
        (VE, "vertex id out of range 0..2 in edge (1, 3)"),
        (VE, "vertex id out of range 0..2 in edge (1, 3)"),
        (PE, "line 3: vertex id out of range 0..2 in edge (1, 3)"),
        (PE, "line 3: vertex id out of range 0..2 in edge (1, 3)"),
    ),
    "self_loop": (
        (VE, "self-loop at vertex 2"),
        (VE, "self-loop at vertex 2"),
        (PE, "line 3: self-loop at vertex 2"),
        (PE, "line 3: self-loop at vertex 2"),
    ),
    "duplicate": (
        (VE, "duplicate edge (0, 1)"),
        (VE, "duplicate edge (0, 1)"),
        (PE, "line 3: duplicate edge (0, 1)"),
        (PE, "line 3: duplicate edge (0, 1)"),
    ),
    "too_few": (
        (VE, "edge count 2 != n-1 = 3"),
        (VE, "graph is disconnected"),
        (PE, "edge count 2 != n-1 = 3"),
        (PE, "graph is disconnected"),
    ),
    "disconnected": (
        (VE, "edges do not form a connected tree"),
        (VE, "graph is disconnected"),
        (PE, "line 4: cycle detected at edge (2, 0)"),
        (VE, "graph is disconnected"),
    ),
}

# case: (stderr of `analyze -`, stderr of `treelike -`); both exit 2 with empty stdout
CLI_STDERR = {
    "out_of_range": (
        "error: line 3: vertex id out of range 0..2 in edge (1, 3)\n",
        "error: line 3: vertex id out of range 0..2 in edge (1, 3)\n",
    ),
    "self_loop": ("error: line 3: self-loop at vertex 2\n", "error: line 3: self-loop at vertex 2\n"),
    "duplicate": ("error: line 3: duplicate edge (0, 1)\n", "error: line 3: duplicate edge (0, 1)\n"),
    "too_few": ("error: edge count 2 != n-1 = 3\n", "error: graph is disconnected\n"),
    "disconnected": ("error: line 4: cycle detected at edge (2, 0)\n", "error: graph is disconnected\n"),
}


def as_text(n, edges):
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


@pytest.mark.parametrize("case", list(CASES))
def test_every_entry_point_rejects_alike(case):
    n, edges = CASES[case]
    text = as_text(n, edges)
    builders = (
        lambda: Tree.from_edges(n, edges),
        lambda: RootedGraph.from_edges(n, edges, 0),
        lambda: parse_edge_list(text),
        lambda: parse_graph_edge_list(text),
    )
    for build, (exc_type, message) in zip(builders, EXPECTED[case]):
        with pytest.raises(ValueError) as exc:
            build()
        assert (type(exc.value), str(exc.value)) == (exc_type, message)


@pytest.mark.parametrize("case", list(CASES))
def test_cli_stdin_stderr_unchanged(case):
    text = as_text(*CASES[case])
    for cmd, want in zip(("analyze", "treelike"), CLI_STDERR[case]):
        assert run_cli(cmd, "-", stdin=text) == (2, "", want)
