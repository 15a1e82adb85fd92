import random
from collections import Counter

import pytest

from treesym import (
    AutomorphismLimitExceeded,
    RootedGraph,
    asym_unrooted,
    brute_graph_aut,
    extract_forest,
    is_treelike,
    parse_graph_edge_list,
    treelike_distinguish,
)
from treesym import canon, treelike

from .conftest import Raised, outcome, path, recorded, traced, trees_up_to
from .reference import reference_extract_forest, reference_treelike_distinguish


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


def grid(side: int, root: int = 0) -> RootedGraph:
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return RootedGraph.from_edges(side * side, edges, root)


def test_forest_matches_reference_random():
    rng = random.Random(2024)
    graphs = list(differential_graphs())
    graphs += [shuffled_graph(rng, rng.randint(20, 300)) for _ in range(60)]
    graphs += [random_connected_graph(rng, rng.randint(20, 300)) for _ in range(60)]
    for g in graphs:
        assert extract_forest(g) == reference_extract_forest(g), (g.n, g.adj, g.root)


def test_forest_matches_reference_on_grid():
    # rooted at a corner, every vertex off the two axes has two parents and
    # starts its own component: 39,601 components, the quadratic case of the reference
    g = grid(200)
    fx = extract_forest(g)
    assert len(fx.components) == 199 * 199 + 1
    assert fx == reference_extract_forest(g)


def test_forest_cycle_check_still_raises(monkeypatch):
    # the unique-parent edges always form a forest, so fake a parent cycle 0 -> 1 -> 2 -> 0
    monkeypatch.setattr(treelike, "_preds", lambda g: [[1], [2], [0]])
    for extract in (extract_forest, reference_extract_forest):
        with pytest.raises(AssertionError, match="forest extraction produced a cycle"):
            extract(cycle(3))


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


def test_distinguish_refuses_more_than_12_vertices():
    with pytest.raises(ValueError, match="^n = 13 exceeds cap 12$"):
        treelike_distinguish(RootedGraph.from_edges(13, [(i, i + 1) for i in range(12)], 0))


@pytest.mark.parametrize("n", [0, -1, -(10**9)])
def test_from_edges_rejects_an_empty_vertex_count(n):
    with pytest.raises(ValueError, match="^vertex count must be at least 1$"):
        RootedGraph.from_edges(n, [], 0)


def test_distinguish_cycle4_absent():
    assert treelike_distinguish(cycle(4)) is None


def shuffled_graph(rng: random.Random, n: int) -> RootedGraph:
    """A random spanning tree plus a few chords (sometimes none), on shuffled ids, at a random root."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.choice([0, 0, 1, 2, 3, n])):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return RootedGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges], root=rng.randrange(n))


PENDANTS = ([], [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (0, 2)], [(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)])


def gadget_graph(rng: random.Random) -> RootedGraph:
    """A small root tree plus vertices with two parents, each carrying one of two pendant trees.

    Each two-parent vertex starts a forest component, so components of one shape
    must take inequivalent colorings while components of other shapes share the id table.
    """
    edges, depth = [], [0]
    for v in range(1, rng.randint(3, 5)):
        p = rng.randrange(v)
        edges.append((p, v))
        depth.append(depth[p] + 1)
    pendants = rng.sample(PENDANTS, 2)
    while True:
        pendant, n = rng.choice(pendants), len(depth)
        levels = [d for d in sorted(set(depth)) if depth.count(d) > 1]
        if not levels or n + len(pendant) + 1 > 12:
            break
        d = rng.choice(levels)
        p, q = rng.sample([v for v in range(n) if depth[v] == d], 2)
        edges += [(p, n), (q, n)] + [(n + a, n + b) for a, b in pendant]
        depth.append(d + 1)
        for a, _ in pendant:
            depth.append(depth[n + a] + 1)
    perm = list(range(len(depth)))
    rng.shuffle(perm)
    return RootedGraph.from_edges(len(depth), [(perm[u], perm[v]) for u, v in edges], root=perm[0])


def differential_graphs():
    for t in trees_up_to(7):
        for w in range(t.n):
            yield RootedGraph(t.n, t.adj, w)
    rng = random.Random(601)
    for _ in range(600):
        yield shuffled_graph(rng, rng.randint(2, 12))
    for _ in range(400):
        yield gadget_graph(rng)


def test_distinguish_matches_reference():
    found = 0
    for g in differential_graphs():
        got = treelike_distinguish(g)
        assert got == reference_treelike_distinguish(g), (g.n, g.adj, g.root)
        found += got is not None and got.mask != 0
    assert found > 300  # the corpus exercises the search, not only the asymmetric shortcut


def complete_bipartite(a: int, b: int, root: int) -> RootedGraph:
    return RootedGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)], root)


@pytest.mark.parametrize("a, b", [(3, 3), (4, 4), (5, 6)])
def test_distinguish_matches_reference_on_complete_bipartite_graphs(a, b):
    # 72, 1,152 and 86,400 automorphisms, none of them kept by the stream
    for root in (0, a + b - 1):
        g = complete_bipartite(a, b, root)
        want = outcome(reference_treelike_distinguish, g, catch=AutomorphismLimitExceeded)
        assert outcome(treelike_distinguish, g, catch=AutomorphismLimitExceeded) == want


def test_distinguish_past_the_limit_raises():
    # K_{6,6} has 2 * 6!^2 = 1,036,800 automorphisms and no sibling leaves, so the search reads 500,000 first;
    # its forest is a 7-vertex star and five singletons, so the coloring search gives up long before that
    g = complete_bipartite(6, 6, 0)
    assert outcome(treelike_distinguish, g, catch=AutomorphismLimitExceeded) == Raised(
        AutomorphismLimitExceeded, "automorphism count exceeds limit 500000", (("limit", 500_000),))


def test_distinguish_keeps_no_automorphism(monkeypatch):
    # K_{5,6}'s 86,400 automorphisms come from one search; listing them peaked at 11.2 MiB
    searches = recorded(monkeypatch, (treelike, "_graph_search"))
    g = complete_bipartite(5, 6, 0)
    got, peak = traced(lambda: treelike_distinguish(g))
    assert got is None and len(searches) == 1
    assert peak <= 1 << 20, peak


def test_distinguish_drains_the_search_past_a_lowered_limit(monkeypatch):
    # with the limit one below |Aut|, every graph whose group is not trivial raises, whether no admissible
    # mask exists, the scan stops at an automorphism that keeps the colors, or the scan reads them all
    rng = random.Random(42)
    graphs = [gadget_graph(rng) for _ in range(150)] + [shuffled_graph(rng, rng.randint(2, 9)) for _ in range(150)]
    kinds = Counter()
    for g in graphs:
        order = len(brute_graph_aut(g.adj))
        if order == 1:
            continue
        want = reference_treelike_distinguish(g)
        kinds["no mask" if treelike._forest_colors(g) is None else "kept" if want is None else "distinguished"] += 1
        monkeypatch.setattr(treelike, "_GRAPH_AUT_LIMIT", order - 1)
        past = Raised(AutomorphismLimitExceeded, f"automorphism count exceeds limit {order - 1}", (("limit", order - 1),))
        assert outcome(treelike_distinguish, g, catch=AutomorphismLimitExceeded) == past
        monkeypatch.setattr(treelike, "_GRAPH_AUT_LIMIT", order)
        assert outcome(treelike_distinguish, g, catch=AutomorphismLimitExceeded) == want
    assert min(kinds["no mask"], kinds["kept"], kinds["distinguished"]) >= 10, kinds


def test_distinguish_analyses_each_component_once(monkeypatch):
    # the per-mask verification re-centered the component once per mask tried
    calls = recorded(monkeypatch, (canon, "center"))
    searched = 0
    for g in differential_graphs():
        calls.clear()
        got = treelike_distinguish(g)
        if len(brute_graph_aut(g.adj)) == 1:
            assert calls == []
            continue
        components = len(extract_forest(g).components)
        if got is not None:
            assert len(calls) == components
            searched += got.mask != 0
        else:
            assert 1 <= len(calls) <= components
    monkeypatch.undo()
    assert searched > 300


def test_from_edges_rejects_too_few_edges_before_allocating():
    # a huge vertex count with one edge must not size anything by n
    got, peak = traced(lambda: outcome(RootedGraph.from_edges, 10**9, [(0, 1)], 0))
    assert got == Raised(ValueError, "graph is disconnected")
    assert peak < 1 << 16
