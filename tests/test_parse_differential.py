"""The one-pass edge-list parsers against the two-pass code they replaced.

The ``reference_*`` functions are the reader and both parsers as they were
when every edge was checked twice: once by the reader, and once more while
``Tree.from_edges`` or ``RootedGraph.from_edges`` built the adjacency. They
are kept here with those constructors inlined as they were and with their
own copies of the helpers, so that a change to ``treesym.trees`` cannot move
them too. Both sides must return equal trees and graphs, or raise the same
exception type with the same text, ``.line`` and cause. A number is a plain decimal
on both sides: the reference checks every token, the readers only the tokens
of a text that is not ASCII, holds ``_`` or ``+``, or has a line longer than
4,300 characters.
"""

import random
import time

import pytest

from treesym import (
    Coloring,
    EdgeListParseError,
    Tree,
    center,
    kary_tree,
    parse_edge_list,
    parse_graph_edge_list,
    root_at,
    random_tree,
    spider,
    verify_distinguishing,
)
from treesym.asym import asym_unrooted
from treesym.coloring import combinadic_unrank, unrank_unrooted
from treesym.trees import _cut, read_edge_lines

from .conftest import Raised, int_digit_limit, outcome, path, recorded, traced
from .reference import reference_center, reference_cut, reference_parse_edge_list, reference_parse_graph_edge_list


def assert_same(text, n):
    """Both tree parsers, and both graph parsers at the default root and at an out-of-range one."""
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)
    for root in (0, n):
        assert outcome(parse_graph_edge_list, text, root) == outcome(reference_parse_graph_edge_list, text, root)


def assert_accepted(text, n):
    """``assert_same`` on a text both sides accept, and the center that the parse keeps is the peeled one."""
    t = parse_edge_list(text)
    assert t == reference_parse_edge_list(text)
    assert t.__dict__["_center"] == reference_center(t)
    assert_same(text, n)


# -- inputs ----------------------------------------------------------------


def family_edges(rng, kind, n):
    """Edges of a seeded path, 3-leg spider, binary or Prüfer tree, relabeled, shuffled, oriented at random."""
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "spider":
        edges = list(spider(n, 3).edges()) if n >= 4 else [(0, i) for i in range(1, n)]
    elif kind == "binary":
        edges = list(kary_tree(n, 2).edges())
    else:
        edges = list(random_tree(rng, n).edges())
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(edges)
    return edges


def token(rng, x):
    """x as a plain decimal: as is, or with one or two leading zeros."""
    s = str(x)
    pick = rng.randrange(6)
    if pick in (1, 2):
        return "0" * pick + s
    return s


SPACES = (" ", "\t", "  ", " \t", "\u00a0", "\u3000")
BLANKS = ("", "   ", "\t", " \t ", "\x0c")


def render(rng, header, edges):
    """The lines of a text: header, then "u v" lines, in varied whitespace, with blank lines between."""
    lines = [rng.choice(("", " ", "\t")) + header + rng.choice(("", " ", "\t "))]
    for u, v in edges:
        while rng.random() < 0.1:
            lines.append(rng.choice(BLANKS))
        lead, trail = rng.choice(("", " ", "\t")), rng.choice(("", " ", "\t", "  "))
        lines.append(f"{lead}{token(rng, u)}{rng.choice(SPACES)}{token(rng, v)}{trail}")
    if rng.random() < 0.3:
        lines.append(rng.choice(BLANKS))
    return lines


def join(rng, lines):
    newline = rng.choice(("\n", "\r\n", "\r", "\n", "\x1c", "\u2028"))
    return newline.join(lines) + rng.choice(("", newline))


def edge_line_indices(lines):
    return [i for i, line in enumerate(lines) if i > 0 and line.strip()]


def non_edge(rng, n, edges):
    present = {(min(u, v), max(u, v)) for u, v in edges}
    for _ in range(50):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in present:
            return u, v
    return None


def chord(n, edges):
    """The first non-edge, in lexicographic order, between two vertices other than 0."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    return next((u, v) for u in range(1, n) for v in range(u + 1, n) if (u, v) not in present)


def leaf_zero_with_a_chord(rng, n, edges):
    """The edges relabeled so that 0 is a leaf, 0's edge left out, and a chord that closes a cycle (n >= 4).

    With the chord in place of 0's edge there are n - 1 edges, and a BFS from 0 reaches only 0.
    """
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    leaf = degree.index(1)
    swap = {0: leaf, leaf: 0}
    edges = [(swap.get(u, u), swap.get(v, v)) for u, v in edges]
    k = next(k for k, e in enumerate(edges) if 0 in e)
    a, b = chord(n, edges)
    return edges[:k] + edges[k + 1 :], k, ((a, b) if rng.random() < 0.5 else (b, a))


def mutations(rng, n, edges, lines):
    """Mutations of a valid text's lines, each a new list of lines: one or two lines changed, or a chord for an edge."""
    idx = edge_line_indices(lines)
    out = []

    def put(i, text):
        new = list(lines)
        new[i] = text
        out.append(new)

    def insert(i, text):
        new = list(lines)
        new.insert(i, text)
        out.append(new)

    # the header
    for header in ("0", "-3", "x", f"{n} {n}", f"{n + 1}", f"{max(n - 1, 1)}", "9" * 4301, "1" + "0" * 4299, "",
                   f"+{n}", f"0_{n}"):
        put(0, header)
    out.append([])
    if not idx:
        insert(1, "0 0")
        insert(1, "0 1")
        return out
    u, v = edges[0]
    i = rng.choice(idx)
    j = rng.choice(idx)
    big = "1" * 4301
    for text in (
        f"{u}",
        f"{u} {v} {v}",
        f"{u} x",
        f"1.5 {v}",
        f"0x1 {v}",
        f"+{u} {v}",
        f"{u} 0_{v}",
        f"{u} -+{v}",
        f"{u} {n}",
        f"{n + 7} {v}",
        f"-1 {v}",
        f"{u} -{v + 1}",
        f"{u} {u}",
        f"{n} {n}",
        f"-2 -2",
        f"{big} {v}",
        f"{u} {'0' * 4301}",
        f"{u}{' ' * 4400}{v}",
        "",
    ):
        put(i, text)
    # duplicates of an earlier edge, in both orientations
    if len(idx) >= 2:
        first, later = sorted(rng.sample(idx, 2))
        a, b = lines[first].split()
        put(later, f"{a} {b}")
        put(later, f"{b} {a}")
        insert(later, f"{b}\t{a}")
    # too few edges, too many, and a cycle
    new = list(lines)
    del new[j]
    out.append(new)
    extra = non_edge(rng, n, edges)
    if extra is not None:
        insert(j, f"{extra[0]} {extra[1]}")
        put(j, f"{extra[0]} {extra[1]}")
        # the edge count is checked before the cycle
        new = list(lines)
        new[0] = str(n + 1)
        new[j] = f"{extra[0]} {extra[1]}"
        out.append(new)
    # two faults: the earlier line wins
    if len(idx) >= 2:
        first, later = sorted(rng.sample(idx, 2))
        new = list(lines)
        new[first] = f"{u} {n}"
        new[later] = f"{u} {u}"
        out.append(new)
        new = list(lines)
        new[first] = f"{u} {u}"
        new[later] = "x y"
        out.append(new)
    # n - 1 edges, one a chord, that a BFS from 0 does not span: vertex 0's
    # only edge replaced by the chord, the chord first, the chord last
    if n >= 4:
        rest, k, c = leaf_zero_with_a_chord(rng, n, edges)
        for order in (rest[:k] + [c] + rest[k:], [c] + rest, rest + [c]):
            out.append(render(rng, str(n), order))
    return out


def token_rule_texts(rng, n, edges):
    """Texts of the tree ``edges`` that the token rules accept, and texts with n - 1 edge lines, one of them faulty.

    Accepted: "-0" for 0, a zero-padded header, form feeds between lines, no-break spaces between ids, and one
    line padded past 4,300 characters around short ids. Rejected: an id zero-padded to 4,301 digits (only the
    digit guard rejects it once the limit is lifted), a self-loop, an id equal to n, an id of -1, and a duplicate
    of another edge (n >= 3).
    """
    edge_lines = [f"{u} {v}" for u, v in edges]
    k = rng.randrange(len(edge_lines)) if edge_lines else 0
    padded = [str(n)] + edge_lines
    padded[k + 1 if edge_lines else 0] += " " * 4400

    def text(header, lines, newline="\n"):
        return newline.join([header] + lines) + newline

    accepted = [
        text(str(n), [" ".join("-0" if x == "0" else x for x in line.split()) for line in edge_lines]),
        text("00000" + str(n), edge_lines),
        text(str(n), edge_lines, "\x0c"),
        text(str(n), [line.replace(" ", "\u00a0") for line in edge_lines]),
        text(padded[0], padded[1:]),
    ]
    if not edge_lines:
        return accepted, []
    u, v = edges[k]
    faults = [(k, f"{str(u).zfill(4301)} {v}"), (k, f"{u} {u}"), (k, f"{u} {n}"), (k, f"-1 {v}")]
    if len(edge_lines) >= 2:
        faults.append(((k + 1) % len(edge_lines), f"{v} {u}"))  # the duplicate goes on another edge's line
    return accepted, [text(str(n), edge_lines[:j] + [fault] + edge_lines[j + 1 :]) for j, fault in faults]


SIZES = (1, 2, 3, 4, 7, 30, 200, 4000)
KINDS = ("path", "spider", "binary", "pruefer")


def test_valid_texts_parse_alike():
    rng = random.Random(20251)
    for n in SIZES:
        for kind in KINDS:
            edges = family_edges(rng, kind, n)
            text = join(rng, render(rng, token(rng, n), edges))
            assert parse_edge_list(text) == Tree.from_edges(n, edges)
            assert_accepted(text, n)
            accepted, rejected = token_rule_texts(rng, n, edges)
            for text in accepted:
                assert_accepted(text, n)
            # cli.main lifts int's digit limit for its output: the input rules must not move with it
            for digits in (None, 0):
                with int_digit_limit(digits):
                    for text in rejected:
                        assert isinstance(outcome(parse_edge_list, text), Raised), text[:80]
                        assert_same(text, n)


def test_cut_counts_a_long_int_without_str():
    # a long int is quoted from its leading digits and its digit count, never converted whole: outside main, where
    # the digit limit holds, a root or pin past 4,300 digits gets the root message, and an unranking index, total or
    # rank its range message. Every quote equals the whole string's cut, with the limit held and lifted (inside main)
    rng = random.Random(47)
    values = [10**5000, -(10**5000), 10**5000 - 1, 1 - 10**5000, 10**48, 10**49 - 1, -(10**48), 2**160, -(2**161)]
    values += [sign * rng.getrandbits(rng.randint(1, 20000)) for sign in (1, -1) for _ in range(100)]
    values += [0, -1, 10**39, 10**40, -(10**39), True, "x" * 40, "x" * 41, "-" * 4400]
    k2, p = Tree.from_edges(2, [(0, 1)]), path(15000)  # a(P_15000) has 4,516 digits
    with int_digit_limit(0):
        want = [(reference_cut(x), reference_cut(x, repr)) for x in values]
        roots = [f"root {reference_cut(w)} out of range 0..1" for w in (10**5000, -(10**5000))]
        unranks = [Raised(IndexError, f"index -1 out of range [0, {reference_cut(asym_unrooted(p))})"),
                   Raised(IndexError, f"index {reference_cut(10**5000)} out of range [0, 1)"),
                   Raised(ValueError, f"rank {reference_cut(10**5000)} out of range for C(3, 2)")]
    for digits in (4300, 0):
        with int_digit_limit(digits):
            assert [(_cut(x), _cut(x, repr)) for x in values] == want
            assert outcome(root_at, k2, 10**5000) == Raised(ValueError, roots[0])
            assert outcome(verify_distinguishing, k2, Coloring(2, 1), pinned=-(10**5000)) == Raised(ValueError, roots[1])
            assert [outcome(unrank_unrooted, p, -1, catch=IndexError),
                    outcome(unrank_unrooted, k2, 10**5000, catch=IndexError),
                    outcome(combinadic_unrank, 10**5000, 3, 2)] == unranks


def test_long_lines_within_and_over_the_digit_limit():
    pad = " " * 4400
    for text in (
        f"{pad}3{pad}\n0{pad}1\n1 2\n",
        f"3\n{pad}0 1{pad}\n1\t{pad}2\n",
        f"3\n0 1\n{'0' * 4300} 2\n",
        f"3\n0 1\n{'0' * 4301} 2\n",
        f"3\n0 1\n1{pad}+{'0' * 4300}\n",
        f"{'0' * 4299}3\n0 1\n1 2\n",
        f"{'0' * 4298}3\n0 1\n1 2\n",
    ):
        assert_same(text, 3)


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_texts_fail_alike(kind):
    rng = random.Random(101 + KINDS.index(kind))
    for n in SIZES:
        for _ in range(3 if n <= 200 else 1):
            edges = family_edges(rng, kind, n)
            lines = render(rng, str(n), edges)
            for mutated in mutations(rng, n, edges, lines):
                assert_same(join(rng, mutated), n)


@pytest.mark.parametrize("kind", KINDS)
def test_parse_edge_list_accepts_exactly_what_tree_from_edges_accepts(kind):
    # one rule accepts a tree: Tree.from_edges on the edges the reader returns
    rng = random.Random(303 + KINDS.index(kind))
    for n in SIZES:
        edges = family_edges(rng, kind, n)
        lines = render(rng, str(n), edges)
        for mutated in [lines] + mutations(rng, n, edges, lines):
            text = join(rng, mutated)
            read = outcome(read_edge_lines, text, catch=EdgeListParseError)
            if isinstance(read, Raised):
                continue
            parsed, built = outcome(parse_edge_list, text), outcome(Tree.from_edges, *read)
            assert parsed == built if isinstance(parsed, Tree) else not isinstance(built, Tree)


def test_a_tree_and_its_center_cost_two_bfs_and_a_cycle_one_union_find(monkeypatch):
    from treesym import trees

    calls = recorded(monkeypatch, (trees, "_bfs"), (trees, "_union_find"))
    rng = random.Random(404)
    for n in SIZES:
        for kind in KINDS:
            edges = family_edges(rng, kind, n)
            calls.clear()
            t = parse_edge_list(join(rng, render(rng, token(rng, n), edges)))
            # the acceptance BFS from 0 is the center's first sweep; the parse runs the second and keeps the center
            assert [name for name, _ in calls] == ["_bfs", "_bfs"], (n, kind)
            assert center(t) == reference_center(t)
            assert [name for name, _ in calls] == ["_bfs", "_bfs"], (n, kind)
            assert t == Tree.from_edges(n, edges)
            if n < 4:
                continue
            # one edge too many goes straight to the union-find
            calls.clear()
            with pytest.raises(EdgeListParseError, match="cycle detected"):
                parse_edge_list(join(rng, render(rng, str(n), edges + [chord(n, edges)])))
            assert [name for name, _ in calls] == ["_union_find"], (n, kind)
            # n - 1 edges, one of them a chord: the BFS misses a vertex, then the union-find names the line
            rest, k, c = leaf_zero_with_a_chord(rng, n, edges)
            calls.clear()
            with pytest.raises(EdgeListParseError, match="cycle detected"):
                parse_edge_list(join(rng, render(rng, str(n), rest[:k] + [c] + rest[k:])))
            assert [name for name, _ in calls] == ["_bfs", "_union_find"], (n, kind)


def test_only_a_text_with_a_suspect_character_has_its_numbers_checked(monkeypatch):
    # int() reads plain decimals exactly in an ASCII text without "_" and "+",
    # so a clean text, of any length, costs no per-token check
    from treesym import trees

    calls = recorded(monkeypatch, (trees, "_is_decimal"))
    assert parse_edge_list("4\n0 1\n-0 2\n0 3\n") == Tree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert calls == []
    for text, line in (("4\n0 1\n0 2\n0 3\n+", 5), ("4\n0 1\n0 2\n0 3_\n", 4), ("4\n0 1\n0 2\n0 ٣\n", 4)):
        calls.clear()
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(text)
        assert exc.value.line == line and calls, text


def test_a_plain_text_reads_its_edge_ids_inline(monkeypatch):
    # a plain text's ids are read as the accepting pass reads them: only the header goes through
    # trees._ints, and a text that is not plain has every line's tokens checked there
    from treesym import trees

    calls = recorded(monkeypatch, (trees, "_ints"))
    for text, plain in (("4\n0 1\n\n-0 2\n0 3\n", True), ("4\n0 1\n0\u00a02\n0 3\n", False),
                        (f"4\n0 1\n0 2{' ' * 4400}\n0 3\n", False)):
        calls.clear()
        assert read_edge_lines(text) == (4, [(0, 1), (0, 2), (0, 3)])
        assert [p for _, (_, p) in calls] == [plain] * (1 if plain else 4), text
    calls.clear()
    assert parse_graph_edge_list("4\n0 1\n1 2\n2 3\n3 0\n") == reference_parse_graph_edge_list("4\n0 1\n1 2\n2 3\n3 0\n")
    assert [p for _, (_, p) in calls] == [True]


# -- hostile sizes ---------------------------------------------------------

# tracemalloc peaks of parse_edge_list on these 1.2 MB texts (n = 10**5, Python 3.11), read in one pass
# straight into adjacency lists: path 21.7 MB, star 22.5 MB, spider 21.7 MB. The bound, set at twice the
# 32 MB that an earlier reader took, is kept
HOSTILE_PEAK = 64 << 20


@pytest.mark.parametrize("kind", ["path", "star", "spider"])
def test_hostile_sizes_parse_within_memory(kind):
    n = 10**5
    rng = random.Random(7)
    if kind == "star":
        edges = [(0, i) for i in range(1, n)]
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in edges]
        rng.shuffle(edges)
    else:
        edges = family_edges(rng, kind, n)
    text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    t, peak = traced(lambda: parse_edge_list(text))
    assert peak < HOSTILE_PEAK
    assert t == Tree.from_edges(n, edges)


@pytest.mark.parametrize("parse", [parse_edge_list, parse_graph_edge_list])
def test_huge_valid_header_fails_fast(parse):
    # 4,300 digits is within the limit: the header parses, and the edge count rejects it
    text = "1" + "0" * 4299 + "\n0 1\n1 2\n2 3\n"
    start = time.perf_counter()
    exc, peak = traced(lambda: pytest.raises(EdgeListParseError, parse, text))
    elapsed = time.perf_counter() - start
    assert exc.value.line is None
    assert elapsed < 1.0
    assert peak < 1 << 20
