import copy
import dataclasses
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given

from treesym import (
    Coloring,
    EdgeCenter,
    EdgeListParseError,
    Tree,
    VertexCenter,
    all_trees,
    asym_unrooted,
    aut_order,
    center,
    construct_distinguishing,
    motion,
    parse_edge_list,
    parse_graph_edge_list,
    random_tree,
    relabel,
    root_at,
    serialize_edge_list,
    spider,
    unrank_unrooted,
    unrooted_code,
    verify_distinguishing,
)
from treesym import trees as trees_module

from .conftest import (
    Raised,
    outcome,
    path,
    random_trees,
    recorded,
    relabeled_families,
    sample_roots,
    star,
    traced,
    trees_up_to,
    trees_with_permutation,
)
from .reference import reference_bits, reference_center, reference_mask, reference_root_at


@pytest.mark.parametrize("parse", [parse_edge_list, parse_graph_edge_list])
def test_huge_header_fails_before_allocating(parse):
    # a one-line header must not size anything by n before the edges are counted
    _, peak = traced(lambda: pytest.raises(ValueError, parse, "1000000\n0 1\n"))
    assert peak < 1 << 20


def test_parse_k2():
    t = parse_edge_list("2\n0 1")
    assert t.n == 2
    assert t.adj == ((1,), (0,))


def test_parse_k1():
    t = parse_edge_list("1\n")
    assert t.n == 1
    assert t.adj == ((),)


def test_parse_p3():
    t = parse_edge_list("3\n0 1\n0 2")
    assert t.adj == ((1, 2), (0,), (0,))


def test_parse_crlf_and_blank_lines():
    t = parse_edge_list("3\r\n\r\n0 1\r\n0 2\r\n\r\n")
    assert t.adj == ((1, 2), (0,), (0,))


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("3\n0 1\n0 1", "duplicate edge", 3),
        ("3\n0 1\n0 3", "out of range", 3),
        ("3\n0 1\n1 2\n2 0", "cycle", 4),
        ("3\n0 1", "edge count", None),
        ("0\n", "at least 1", 1),
        ("2\nx y", "non-integer", 2),
        ("2\n0 0", "self-loop", 2),
        ("", "empty input", None),
        ("2\n0 1 2", "expected 'u v'", 2),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_gappy_input_rejected():
    # vertex 3 never used: the edges cannot connect 4 vertices
    with pytest.raises(EdgeListParseError):
        parse_edge_list("4\n0 1\n1 2")


def test_serialize_golden(p4):
    assert serialize_edge_list(p4) == "4\n0 1\n1 2\n2 3\n"


@given(random_trees(max_n=12))
def test_round_trip(t):
    assert parse_edge_list(serialize_edge_list(t)).adj == t.adj


def test_center_examples(p3, p4, k2, k1):
    assert center(p3) == VertexCenter(0)
    assert center(p4) == EdgeCenter(1, 2)
    assert center(k2) == EdgeCenter(0, 1)
    assert center(k1) == VertexCenter(0)


@given(trees_with_permutation(max_n=10))
def test_center_relabel_invariant(tp):
    t, perm = tp
    c1 = center(t)
    c2 = center(relabel(t, perm))
    if isinstance(c1, VertexCenter):
        assert c2 == VertexCenter(perm[c1.vertex])
    else:
        u, v = sorted((perm[c1.u], perm[c1.v]))
        assert c2 == EdgeCenter(u, v)


def test_center_is_the_last_peeled_layer():
    # every tree with n <= 12 and three relabelings of each, seeded trees up to n = 2000,
    # n = 1, 2, 3 with both center kinds, and hostile sizes: 10^5- and (10^5 + 1)-vertex
    # paths, the 10^5-vertex star and a 10^5-vertex 6-leg spider
    rng = random.Random(17)
    trees = [path(1), path(2), path(3), Tree.from_edges(3, [(0, 1), (0, 2)]), path(4)]
    for t in trees_up_to(12):
        trees.append(t)
        trees.extend(relabel(t, rng.sample(range(t.n), t.n)) for _ in range(3))
    trees += relabeled_families(17, (4, 5, 31, 100, 500, 1999, 2000))
    trees += [random_tree(rng, n) for n in range(3, 2001, 37)]
    trees += [path(10**5), path(10**5 + 1), star(10**5), spider(10**5, 6)]
    kinds = set()
    for t in trees:
        assert center(t) == reference_center(t), t.adj
        kinds.add((min(t.n, 4), type(center(t))))
    assert kinds == {(1, VertexCenter), (2, EdgeCenter), (3, VertexCenter), (4, VertexCenter), (4, EdgeCenter)}
    hostile = [EdgeCenter(49_999, 50_000), VertexCenter(50_000), VertexCenter(0), VertexCenter(0)]
    assert [center(t) for t in trees[-4:]] == hostile


def center_corpus() -> list[Tree]:
    """Both center kinds at n = 1, 2, 7, 8, a star with a = 0, and relabeled families up to n = 40."""
    return [path(1), path(2), path(7), path(8), star(6)] + relabeled_families(23, (4, 9, 40))


def test_center_is_found_once_per_tree(monkeypatch):
    # every public function that needs the center reads the one kept on the tree:
    # two BFS sweeps in all, whichever function is called first
    sweeps = recorded(monkeypatch, (trees_module, "_bfs"))
    calls = [
        center,
        aut_order,
        motion,
        asym_unrooted,
        construct_distinguishing,
        lambda t: asym_unrooted(t) and unrank_unrooted(t, asym_unrooted(t) - 1),
        lambda t: verify_distinguishing(t, Coloring(t.n, 0)),
        unrooted_code,
    ]
    rng = random.Random(23)
    for t in center_corpus():
        fresh = Tree(t.n, t.adj)
        rng.shuffle(calls)
        sweeps.clear()
        for call in calls:
            call(fresh)
        assert len(sweeps) == 2, fresh.adj


def test_kept_center_is_invisible_and_left_behind_by_copies():
    for t in center_corpus():
        warm, cold = Tree(t.n, t.adj), Tree(t.n, t.adj)
        c = center(warm)
        assert center(warm) is c
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        copies = [pickle.loads(pickle.dumps(warm)), copy.copy(warm), copy.deepcopy(warm), dataclasses.replace(warm)]
        for twin in copies:
            assert twin == warm and twin is not warm
            assert "_center" not in twin.__dict__
            assert center(twin) == c


def test_root_at_examples(p3, p4, k1):
    rt = root_at(p3, 0)
    assert rt.children[0] == (1, 2)
    assert rt.subtree_size == (3, 1, 1)
    assert rt.parent == (None, 0, 0)

    rt = root_at(k1, 0)
    assert rt.subtree_size == (1,)

    rt = root_at(p4, 0)
    assert rt.subtree_size == (4, 3, 2, 1)


TABLES = ("parent", "children", "subtree_size", "bfs_order")

# each table is read first in one of these orders; the tables are built together on the first read
READ_ORDERS = [TABLES[i:] + TABLES[:i] for i in range(len(TABLES))] + [TABLES[::-1]]


def rooted_fields(t, w, order=TABLES):
    """The tables of ``root_at(t, w)`` in ``TABLES`` order, read in ``order``, each twice."""
    rt = root_at(t, w)
    assert (rt.tree, rt.root) == (t, w)
    first = {name: getattr(rt, name) for name in order}
    assert all(getattr(rt, name) is first[name] for name in order)
    return tuple(first[name] for name in TABLES)


def test_root_at_matches_reference():
    # bfs_order and the children order fix class ids and hence unranking
    orders = itertools.cycle(READ_ORDERS)
    for n in range(1, 10):
        for t in all_trees(n):
            for w in range(n):
                assert rooted_fields(t, w, next(orders)) == reference_root_at(t, w)
    rng = random.Random(31)
    for n in (3, 10, 100, 500, 2000):
        for _ in range(3):
            t = random_tree(rng, n)
            for w in {0, n - 1, rng.randrange(n)}:
                assert rooted_fields(t, w, next(orders)) == reference_root_at(t, w)
    for order in READ_ORDERS:
        assert rooted_fields(path(1), 0, order) == reference_root_at(path(1), 0) == ((None,), ((),), (1,), (0,))
    # relabeled, so a parent can sit anywhere in a sorted adjacency list
    for t in relabeled_families(37, (4, 5, 10, 100, 500, 2000)):
        for w in sample_roots(t, rng):
            assert rooted_fields(t, w, next(orders)) == reference_root_at(t, w)


def test_root_out_of_range(p3, table_builds):
    # the range check runs in root_at itself, before any table is read
    for w in (3, 4, -1, -3):
        with pytest.raises(ValueError, match="out of range"):
            root_at(p3, w)
    assert table_builds == []


@pytest.mark.parametrize("adj", [((1, 2), (0, 2), (0, 1)), ((1,), (0,), (3,), (2,))], ids=["triangle", "two_edges"])
def test_rooting_an_unchecked_non_tree_raises(adj):
    # Tree(n, adj) checks nothing: the rooting walk, which never ended on a cycle and rooted one part of a
    # disconnected graph, raises Tree.from_edges' message when it does not take exactly n vertices
    t = Tree(len(adj), adj)
    for run in (aut_order, asym_unrooted, motion, lambda t: root_at(t, 1).bfs_order):
        with pytest.raises(ValueError, match="^edges do not form a connected tree$"):
            run(t)


def test_rooting_survives_copy_and_pickle():
    rng = random.Random(5)
    for t in [path(1), path(2)] + relabeled_families(41, (4, 30)):
        for w in sample_roots(t, rng):
            want = (t, w) + reference_root_at(t, w)
            rt = root_at(t, w)
            for read in (False, True):
                if read:
                    assert (rt.tree, rt.root) + tuple(getattr(rt, name) for name in TABLES) == want
                copies = [pickle.loads(pickle.dumps(rt)), copy.copy(rt), copy.deepcopy(rt)]
                # copying an unread rooting builds no tables, in it or in the copies
                assert read == ("parent" in rt.__dict__)
                for twin in copies:
                    assert twin is not rt and read == ("parent" in twin.__dict__)
                    assert (twin.tree, twin.root) + tuple(getattr(twin, name) for name in TABLES) == want


@given(random_trees(max_n=12))
def test_subtree_size_recursion(t):
    for w in range(t.n):
        rt = root_at(t, w)
        assert rt.subtree_size[w] == t.n
        for v in range(t.n):
            assert rt.subtree_size[v] == 1 + sum(rt.subtree_size[c] for c in rt.children[v])
        # child order is ascending id
        for v in range(t.n):
            assert list(rt.children[v]) == sorted(rt.children[v])


def test_coloring_bits_round_trip():
    c = Coloring.from_bits("0110")
    assert c.bits() == "0110"
    assert c.blacks() == (1, 2)
    assert c.complement().bits() == "1001"
    assert c.is_black(1) and not c.is_black(0)


def test_coloring_rejects_bad_input():
    with pytest.raises(ValueError):
        Coloring.from_bits("01x")
    with pytest.raises(ValueError):
        Coloring(2, 5)


def test_coloring_mask_range_check_builds_no_power_of_two():
    for mask in (8, -1):
        with pytest.raises(ValueError, match="^mask out of range for vertex count$"):
            Coloring(3, mask)
    assert Coloring(3, 7).bits() == "111"
    # every int mask is accepted exactly when 0 <= mask < 2^n, on both sides of each bound
    for n in (1, 2, 3, 7, 64, 1000):
        for mask in (0, 1, -1, (1 << n) - 1, 1 << n, (1 << n) + 1, -(1 << n), 1 << (n + 64), -(1 << (n + 64))):
            got = outcome(Coloring, n, mask)
            if 0 <= mask < 1 << n:
                assert got.mask == mask, (n, mask)
            else:
                assert got == Raised(ValueError, "mask out of range for vertex count"), (n, mask)
    # at 30 bits per 4-byte digit, 2^(10^12) would take 124 GiB and 2^(10^8) 12.7 MiB
    _, peak = traced(lambda: (Coloring(10**12, 0), Coloring(10**8, 5)))
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "bits, shown",
    [
        ("01x", "'01x'"),
        ("", "''"),
        ("0" * 39 + "x", repr("0" * 39 + "x")),
        ("0" * 100_000 + "x", repr("0" * 40) + "... (cut, 100001 characters)"),
    ],
    ids=["short", "empty", "40-chars", "100001-chars"],
)
def test_coloring_from_bits_quotes_at_most_40_characters(bits, shown):
    assert outcome(Coloring.from_bits, bits) == Raised(ValueError, f"expected a nonempty 0/1 string, got {shown}")


def test_coloring_conversions_match_per_vertex_code():
    rng = random.Random(5)
    for n in [*range(1, 71), 1000]:
        for mask in (0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(5))):
            c = Coloring(n, mask)
            bits = reference_bits(c)
            assert c.bits() == bits
            assert c.blacks() == tuple(v for v in range(n) if mask >> v & 1)
            assert Coloring.from_bits(bits).mask == reference_mask(bits) == mask
            assert Coloring.from_black(n, reversed(c.blacks())) == c


def test_coloring_from_black_rejects_out_of_range():
    for n, blacks in ((3, [3]), (3, [-1]), (1, [0, 1])):
        with pytest.raises(ValueError):
            Coloring.from_black(n, blacks)
    with pytest.raises(ValueError):
        Coloring.from_black(0, [])


def test_coloring_million_vertex_round_trip():
    # per-vertex shifts take over 30 s here; the digit-string conversions are linear
    n = 10**6
    c = Coloring(n, random.Random(6).getrandbits(n))
    t0 = time.perf_counter()
    assert Coloring.from_bits(c.bits()) == c
    assert Coloring.from_black(n, c.blacks()) == c
    assert time.perf_counter() - t0 < 5


def test_zero_vertices_rejected():
    with pytest.raises(ValueError):
        Tree.from_edges(0, [])


def test_path_helper():
    assert path(5).adj[0] == (1,)
    assert path(5).delta == 2
