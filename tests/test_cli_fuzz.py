"""Malformed and boundary input through ``main()`` in process.

Every outcome must be an exit code the CLI documents (never 1, the internal
failure code), and an input error (exit 2) must leave stdout empty and say
what is wrong in one ``error:`` line or an argparse usage message. Any other
exception escaping ``main()`` fails the test.
"""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treesym import treelike
from treesym.cli import CORPUS_FLAGS
from treesym.corpus import FAMILIES

from .conftest import run_cli


def fuzz(examples):
    return settings(derandomize=True, deadline=None, max_examples=examples,
                    suppress_health_check=[HealthCheck.too_slow])


ONE_ERROR_LINE = re.compile(r"error: [^\n]*\n")
USAGE_ERROR = re.compile(r"usage: treesym.*\ntreesym[^\n]*: error: [^\n]*\n", re.DOTALL)

BAD_TOKENS = ["x", "1.5", "0x1", "+1", "-0", "1e3", "٣", "9" * 5000, "00000000000000000000007"]
token = st.integers(-3, 14).map(str) | st.sampled_from(BAD_TOKENS)


def check_exit(argv, stdin=""):
    code, out, err = run_cli(*argv, stdin=stdin)
    context = (argv, stdin[:300], code, out[:300], err[:300])
    assert code in {0, 2, 3, 4, 5}, context
    if code == 2:
        assert out == "", context
        assert ONE_ERROR_LINE.fullmatch(err) or USAGE_ERROR.fullmatch(err), context
    if code == 0:
        assert err == "", context
    return code


def edge_list_text(draw, n, edges, faults):
    """The edge list of ``edges`` on ``n`` vertices with some of ``faults`` injected, blank
    lines and CRLF line ends; a fault may also break the header."""
    edges = [[str(u), str(v)] for u, v in edges]
    for fault in draw(st.lists(st.sampled_from(faults), min_size=1, max_size=2)) if faults else []:
        if fault == "loop":
            v = str(draw(st.integers(0, n - 1)))
            edges.insert(draw(st.integers(0, len(edges))), [v, v])
        elif fault == "duplicate" and edges:
            edge = draw(st.sampled_from(edges))
            edges.append(draw(st.sampled_from([edge[:], edge[::-1]])))
        elif fault == "cycle" and n >= 3:
            edges.append([str(v) for v in draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))])
        elif fault == "drop" and edges:
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        elif fault == "token" and edges:
            edge = draw(st.sampled_from(edges))
            if edge:
                edge[draw(st.integers(0, len(edge) - 1))] = draw(token)
        elif fault == "line" and edges:
            edges[draw(st.integers(0, len(edges) - 1))] = draw(st.lists(token, max_size=3))
        elif fault == "header":
            n = draw(token | st.just(f"{n} {n}"))
    lines = [str(n), *(" ".join(e) for e in edges)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def random_tree_edges(draw, n):
    return [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]


def vertex_arg(draw, n):
    return draw(st.integers(-2, n + 1).map(str) | st.sampled_from(["x", "", "9" * 50]))


@st.composite
def tree_cases(draw):
    """An edge list, often of a valid tree, and one tree command on it."""
    n = draw(st.integers(1, 12))
    faults = ["loop", "duplicate", "cycle", "drop", "token", "line", "header"]
    text = edge_list_text(draw, n, random_tree_edges(draw, n), draw(st.sampled_from([[], faults])))
    command = draw(st.sampled_from(["analyze", "color", "verify", "oracle"]))
    argv = [command, "-"]
    if command == "analyze":
        argv += draw(st.sampled_from([[], ["--json"]]))
        argv += draw(st.sampled_from([[], ["--all-roots"], ["--root", vertex_arg(draw, n)]]))
    elif command == "color":
        argv += draw(st.sampled_from([[], ["--index", str(draw(st.integers(-2, 40)))],
                                      ["--count", str(draw(st.integers(-2, 5)))]]))
        argv += draw(st.sampled_from([[], ["--root", vertex_arg(draw, n)]]))
        argv += draw(st.sampled_from([[], ["--dot"]]))
    elif command == "verify":
        bits = draw(st.text(alphabet="01", min_size=n, max_size=n) | st.text(alphabet="01x2 ", max_size=14))
        argv += ["--coloring", bits]
        argv += draw(st.sampled_from([[], ["--pin", vertex_arg(draw, n)]]))
    return text, argv


@fuzz(400)
@given(case=tree_cases())
def test_tree_commands_on_malformed_edge_lists_exit_as_documented(case):
    text, argv = case
    check_exit(argv, text)


def test_tree_commands_reach_every_documented_exit_code():
    star = "4\n0 1\n0 2\n0 3\n"
    path = "3\n0 1\n1 2\n"
    assert check_exit(["analyze", "-"], "9" * 5000 + "\n") == 2
    assert check_exit(["analyze", "-", "--root", "3"], path) == 2
    assert check_exit(["color", "-"], star) == 3
    assert check_exit(["color", "-", "--index", "2"], path) == 3
    assert check_exit(["verify", "-", "--coloring", "000"], path) == 4
    assert check_exit(["verify", "-", "--coloring", "0x0"], path) == 2
    assert check_exit(["oracle", "-"], "3\r\n0 1\r\n\r\n1 2\r\n") == 0


def family_values(family):
    if family == "lobed-extremal":
        return st.lists(st.integers(-3, 24) | st.integers(28, 60), min_size=1, max_size=1)
    width = len(FAMILIES[family])
    return st.lists(st.integers(-3, 30), min_size=width, max_size=width)


@st.composite
def corpus_commands(draw):
    argv = ["corpus"]
    for family in draw(st.lists(st.sampled_from(CORPUS_FLAGS), max_size=2, unique=True)):
        argv += [f"--{family}", *map(str, draw(family_values(family)))]
    count = draw(st.none() | st.integers(-2, 5))
    if count is not None:
        argv += ["--count", str(count)]
    argv += draw(st.sampled_from([[], ["--seed", "3"]]))
    argv += draw(st.sampled_from([[], ["--check"], ["--check", "--json"]]))
    return argv


@fuzz(300)
@given(argv=corpus_commands())
def test_corpus_arguments_exit_as_documented(argv):
    check_exit(argv)


@st.composite
def treelike_cases(draw):
    """A small connected graph (a tree plus chords), sometimes with a self-loop, a duplicate
    edge, a missing edge or a bad token, and a root."""
    n = draw(st.integers(1, 8))
    edges = random_tree_edges(draw, n)
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)):
        if u != v and (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    text = edge_list_text(draw, n, edges, draw(st.sampled_from([[], ["loop", "duplicate", "drop", "token"]])))
    argv = ["treelike", "-"] + draw(st.sampled_from([[], ["--root", vertex_arg(draw, n)]]))
    return text, argv


@fuzz(200)
@given(case=treelike_cases())
def test_treelike_on_small_graphs_exits_as_documented(case):
    text, argv = case
    check_exit(argv, text)


HUGE = 10**5


@pytest.mark.parametrize(
    "edges, witnesses",
    [
        ([(v, v + 1) for v in range(HUGE - 1)], [*range(1, HUGE), None]),
        ([(0, v) for v in range(1, HUGE)], [1] + [None] * (HUGE - 1)),
    ],
    ids=["path", "star"],
)
def test_treelike_on_a_huge_path_and_star_completes(monkeypatch, edges, witnesses):
    # past the n <= 12 cap no coloring is searched for, so the graph automorphisms are never searched
    def no_search(*args, **kwargs):
        raise AssertionError("graph automorphisms searched past the vertex cap")

    monkeypatch.setattr(treelike, "_graph_search", no_search)
    text = f"{HUGE}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    code, out, err = run_cli("treelike", "-", stdin=text)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["coloring"] is None and report["treelike"] is False
    assert report["forest"]["component_sizes"] == [HUGE]
    assert report["witnesses"] == witnesses
