import random

import pytest

from treesym import (
    RootedGraph,
    asym_unrooted,
    brute_graph_aut,
    extract_forest,
    is_treelike,
    parse_graph_edge_list,
    treelike_distinguish,
)

from .conftest import path, trees_up_to


def cycle(n: int, root: int = 0) -> RootedGraph:
    return RootedGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], root)


def random_connected_graph(rng: random.Random, n: int) -> RootedGraph:
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return RootedGraph.from_edges(n, edges, root=rng.randrange(n))


def test_parse_graph_allows_cycles():
    g = parse_graph_edge_list("4\n0 1\n1 2\n2 3\n3 0\n", root=0)
    assert g.n == 4
    with pytest.raises(Exception):
        parse_graph_edge_list("4\n0 1\n2 3\n")  # disconnected


def test_parse_graph_disconnected_with_enough_edges():
    # a triangle plus a separate edge: n - 1 edges, still two components
    with pytest.raises(ValueError, match="graph is disconnected"):
        parse_graph_edge_list("5\n0 1\n1 2\n2 0\n3 4\n")


def test_path_rooted_at_end_is_not_treelike():
    t = path(5)
    g = RootedGraph(t.n, t.adj, 0)
    rep = is_treelike(g)
    assert not rep.treelike
    # the far endpoint has no witness; interior vertices and the root do
    assert rep.witnesses[4] is None
    assert all(rep.witnesses[v] is not None for v in range(4))


def test_star_rooted_at_center_not_treelike(k13):
    g = RootedGraph(k13.n, k13.adj, 0)
    rep = is_treelike(g)
    assert not rep.treelike
    assert rep.witnesses[0] == 1
    assert all(rep.witnesses[v] is None for v in (1, 2, 3))


def test_cycle4_witnesses():
    rep = is_treelike(cycle(4))
    assert not rep.treelike
    # the antipode has two shortest paths, so neither neighbor of it qualifies
    assert rep.witnesses == (1, None, None, None)


def test_single_vertex_not_treelike():
    g = RootedGraph.from_edges(1, [], 0)
    assert not is_treelike(g).treelike


def test_forest_tree_input_keeps_all_edges():
    for t in trees_up_to(7):
        for w in range(t.n):
            g = RootedGraph(t.n, t.adj, w)
            fx = extract_forest(g)
            assert set(fx.edges) == set(t.edges())
            assert len(fx.components) == 1


def test_forest_cycle4():
    fx = extract_forest(cycle(4))
    assert fx.edges == ((0, 1), (0, 3))
    assert fx.components == ((0, 1, 3), (2,))


def test_forest_k4():
    k4 = RootedGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 0)
    fx = extract_forest(k4)
    assert fx.edges == ((0, 1), (0, 2), (0, 3))


def test_forest_spanning_and_acyclic_random():
    rng = random.Random(77)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 9))
        fx = extract_forest(g)
        covered = {v for comp in fx.components for v in comp}
        assert covered == set(range(g.n))
        assert sum(len(c) - 1 for c in fx.components) == len(fx.edges)


def test_forest_preserved_by_pinned_automorphisms():
    rng = random.Random(99)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 10))
        fset = set(extract_forest(g).edges)
        for sigma in brute_graph_aut(g.adj, pinned=g.root):
            mapped = {tuple(sorted((sigma[u], sigma[v]))) for u, v in fset}
            assert mapped == fset


def test_distinguish_tree_inputs_agree_with_construct():
    for t in trees_up_to(7):
        want = asym_unrooted(t) > 0
        for w in range(t.n):
            got = treelike_distinguish(RootedGraph(t.n, t.adj, w))
            assert (got is not None) == want


def test_distinguish_star_absent(k13):
    assert treelike_distinguish(RootedGraph(k13.n, k13.adj, 0)) is None


def test_distinguish_asymmetric_graph_all_white(asym7):
    g = RootedGraph(asym7.n, asym7.adj, 0)
    got = treelike_distinguish(g)
    assert got is not None and got.mask == 0


def test_distinguish_verified_against_group():
    rng = random.Random(3)
    for _ in range(120):
        g = random_connected_graph(rng, rng.randint(2, 8))
        coloring = treelike_distinguish(g)
        if coloring is None:
            continue
        mask = coloring.mask
        for sigma in brute_graph_aut(g.adj):
            if any(i != y for i, y in enumerate(sigma)):
                image = sum(1 << sigma[v] for v in range(g.n) if mask >> v & 1)
                assert image != mask


def test_distinguish_cycle4_absent():
    assert treelike_distinguish(cycle(4)) is None
