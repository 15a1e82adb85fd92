"""The all-roots pass and the rooted walk against the per-root computation.

``reference_conjecture_check`` is the earlier ``conjecture_check`` body: one
rooting, one analysis and one a-table per vertex. The pass must give the same
report, violation witness included, and the same a(T,w) at every root.
``reference_exact_conjecture_check`` is the scan on the pass's exact values,
before ``conjecture_check`` capped them; it is fast enough for the wide trees.
``reference_asym_rooted`` and ``reference_aut_order_rooted`` analyse the tree
rooted at w. The pass, ``canon._toward_center``, gives b(x), the value of the
branch toward the center, so x's class value times b(x) must be the value at
root x, for a and for |Aut|. The rooted walk reads the center analysis along
the path from w to the center.
"""

import io
import json
import random
import sys

import pytest

from treesym import (
    Tree,
    asym_at_every_root,
    asym_rooted,
    asym_unrooted,
    aut_order_rooted,
    conjecture_check,
    construct_distinguishing,
    root_at,
    run_theorem_suite,
    serialize_edge_list,
    verify_distinguishing,
)
from treesym.asym import _a_product, a_at_root, a_by_class
from treesym.autom import _aut_product, aut_by_class
from treesym.canon import TreeAnalysis, _at_root, _chain_pointers, _toward_center
from treesym.cli import main
from treesym.corpus import all_trees, caterpillar, kary_tree, random_tree, spider

from .conftest import Raised, outcome, path, recorded, relabeled, relabeled_families, run_cli, traced, trees_up_to
from .reference import (
    reference_asym_rooted,
    reference_aut_order_rooted,
    reference_conjecture_check,
    reference_exact_conjecture_check,
)


def bounded(rng: random.Random, n: int) -> Tree:
    """Random tree in which every vertex has at most 2 children."""
    slots = [0, 0]
    edges = []
    for v in range(1, n):
        i = rng.randrange(len(slots))
        edges.append((slots[i], v))
        slots[i] = slots[-1]
        slots.pop()
        slots += [v, v]
    return Tree.from_edges(n, edges)


def small_corpus() -> list[Tree]:
    rng = random.Random(3)
    out = []
    for t in trees_up_to(10):
        out.append(t)
        out.extend(relabeled(t, rng) for _ in range(3))
    return out


def seeded_corpus() -> list[tuple[str, Tree]]:
    rng = random.Random(11)
    out = [("k1", Tree.from_edges(1, [])), ("k2", Tree.from_edges(2, [(0, 1)]))]
    for n in (3, 8, 31, 90, 200):
        legs = rng.randint(2, 6)
        for name, t in (
            ("path", path(n)),
            ("spider", spider(n, min(legs, n - 1))),
            ("binary", kary_tree(n, 2)),
            ("bounded", bounded(rng, n)),
            ("prufer", random_tree(rng, n)),
        ):
            out.append((f"{name}{n}", relabeled(t, rng)))
    return out


SEEDED = seeded_corpus()


def test_conjecture_matches_per_root_reference_small():
    for t in small_corpus():
        assert conjecture_check(t).to_json() == reference_conjecture_check(t).to_json(), t.adj


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_conjecture_matches_per_root_reference_seeded(name, t):
    assert conjecture_check(t).to_json() == reference_conjecture_check(t).to_json()


def assert_every_root_matches_rooted(t: Tree) -> None:
    want = tuple(reference_asym_rooted(root_at(t, w)) for w in range(t.n))
    assert asym_at_every_root(t) == want, t.adj


def test_a_at_every_root_matches_rooted_small():
    for t in small_corpus():
        assert_every_root_matches_rooted(t)


def test_asym_at_every_root_matches_per_root_rooting():
    for t in relabeled_families(12, (4, 9, 30, 120, 300)):
        assert_every_root_matches_rooted(t)


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_a_at_every_root_matches_rooted_seeded(name, t):
    assert_every_root_matches_rooted(t)


def with_three_leaves(rng: random.Random, t: Tree) -> Tree:
    """``t`` with three new leaves at one random vertex, so a(T) = 0."""
    w = rng.randrange(t.n)
    return Tree.from_edges(t.n + 3, list(t.edges()) + [(w, t.n + i) for i in range(3)])


def test_conjecture_scan_reads_a_of_t_w():
    # every tree with n <= 11, seeded trees up to n = 500, the wide trees, and trees with a(T) = 0: three twin
    # leaves (on random trees and on every tree with n <= 11), spiders with more legs than a leg has colorings.
    # conjecture_check caps its values at Delta + 1; the reference keeps them exact
    rng = random.Random(41)
    trees = trees_up_to(11) + [t for _, t in SEEDED] + relabeled_families(41, (4, 13, 60, 250, 500))
    trees += [random_tree(rng, rng.randint(2, 500)) for _ in range(40)]
    trees += [joined_at_one_root([10]), joined_at_one_root([12]), joined_at_one_root([11, 12], copies=8)]
    zero = [with_three_leaves(rng, random_tree(rng, rng.randint(1, 500))) for _ in range(60)]
    zero += [spider(1 + legs * length, legs) for length in (1, 2, 3) for legs in range((1 << length) + 1, 12)]
    zero += [with_three_leaves(rng, t) for t in trees_up_to(11)]
    assert all(asym_unrooted(t) == 0 for t in zero)
    reports = []
    for t in trees + zero:
        reports.append(conjecture_check(t))
        assert reports[-1] == reference_exact_conjecture_check(t), t.adj
    assert sum(r.violation is not None for r in reports) > len(zero)


def joined_at_one_root(sizes, copies: int = 1) -> Tree:
    """A root joined to vertex 0 of ``copies`` copies of every free tree on each of ``sizes`` vertices."""
    edges, n = [], 1
    for size in sizes:
        for t in all_trees(size):
            for _ in range(copies):
                edges.extend((n + u, n + v) for u, v in t.edges())
                edges.append((0, n))
                n += t.n
    return Tree.from_edges(n, edges)


def assert_same_run_tables(t: Tree) -> None:
    # x's |Aut| class value times b(x), the run-table pass's value of the branch toward the center, is |Aut(T,x)| of
    # the tree analysed at root x, whose sorted keys intern each vertex; the pass with a-values is asym_at_every_root
    an = TreeAnalysis.at_center(t)
    vals = aut_by_class(an)
    got = [vals[c] * b for c, b in zip(an.ids, _toward_center(an, vals, _aut_product))]
    assert got == [reference_aut_order_rooted(root_at(t, w)) for w in range(t.n)], t.adj


def test_run_table_rerooting_matches_sorted_keys_small():
    for t in small_corpus():
        assert_same_run_tables(t)


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_run_table_rerooting_matches_sorted_keys_seeded(name, t):
    assert_same_run_tables(t)


def test_run_table_rerooting_matches_sorted_keys_wide():
    t = joined_at_one_root([10])
    at_0 = TreeAnalysis.of(root_at(t, 0))
    assert t.n == 1061 and len({at_0.ids[x] for x in at_0.children[0]}) == 106
    assert_same_run_tables(t)
    assert_every_root_matches_rooted(t)


def test_all_roots_outputs_match_the_rooted_walk():
    # every tree with n <= 10 and one relabeling of each, the seeded corpus,
    # 40 random trees with n <= 400 and two wide vertices (106 and 550 child classes)
    rng = random.Random(23)
    trees = [u for t in trees_up_to(10) for u in (t, relabeled(t, rng))] + [t for _, t in SEEDED]
    trees += [random_tree(rng, rng.randint(2, 400)) for _ in range(40)]
    trees += [joined_at_one_root([10]), joined_at_one_root([12])]
    for t in trees:
        want = [asym_rooted(root_at(t, w)) for w in range(t.n)]
        assert asym_at_every_root(t) == tuple(want), t.adj
        assert conjecture_check(t) == reference_exact_conjecture_check(t), t.adj
        code, out, _ = run_cli("analyze", "-", "--all-roots", "--json", stdin=serialize_edge_list(t))
        assert code == 0
        assert json.loads(out)["roots"] == {str(w): str(a_w) for w, a_w in enumerate(want)}


def test_corpus_has_violations_and_clean_trees():
    # the witness comparison only means something if both outcomes occur, and
    # if some witnesses are the branch toward the center and some are not
    trees = small_corpus()
    reports = [conjecture_check(t) for t in trees]
    assert any(r.violation for r in reports)
    assert any(r.violation is None for r in reports)
    assert any(r.violation and r.violation[0] > 0 for r in reports)
    toward = set()
    for t, r in zip(trees, reports):
        if r.violation:
            w, x, _, _ = r.violation
            an = TreeAnalysis.at_center(t)
            toward.add(x == an.rt.parent[w] or {w, x} == set(an.roots))
    assert toward == {True, False}


def test_star_costs_one_product_per_distinct_class():
    # every leaf of a star gets b from one product: the center's runs less one leaf
    n = 400
    t = Tree.from_edges(n, [(0, v) for v in range(1, n)])
    an = TreeAnalysis.at_center(t)
    a = a_by_class(an)
    calls = []

    def counting(vals, runs, drop):
        calls.append((runs, drop))
        return _a_product(vals, runs, drop)

    b = _toward_center(an, a, counting)
    assert calls == [(((0, n - 1),), 0)]
    assert b[1:] == [_a_product(a, ((0, n - 2),))] * (n - 1)


def test_conjecture_check_roots_the_tree_at_most_twice(monkeypatch):
    # one rooting for the rerooting pass, one for a(T) at the center
    calls = recorded(monkeypatch, root_at)
    conjecture_check(path(50))
    assert 1 <= len(calls) <= 2


@pytest.mark.parametrize("make", [lambda: path(50), lambda: spider(40, 3)], ids=["path", "spider"])
def test_all_roots_callers_root_the_tree_once(monkeypatch, make):
    # the rerooting starts from the center analysis that the tree keeps, so
    # each caller makes the one center rooting and analysis in all
    calls = recorded(monkeypatch, root_at, (TreeAnalysis, "of"))

    def analyze_all_roots(t):
        code, out, _ = run_cli("analyze", "-", "--all-roots", "--json", stdin=serialize_edge_list(t))
        assert code == 0
        assert len(json.loads(out)["roots"]) == t.n

    for run in (conjecture_check, asym_at_every_root, analyze_all_roots):
        calls.clear()
        run(make())
        assert sorted(name for name, _ in calls) == ["of", "root_at"], run.__name__


def assert_rooted_numbers_match_reference(t: Tree) -> None:
    for w in range(t.n):
        rt = root_at(t, w)
        assert asym_rooted(rt) == reference_asym_rooted(rt), (t.adj, w)
        assert aut_order_rooted(rt) == reference_aut_order_rooted(rt), (t.adj, w)


def test_rooted_numbers_match_reference_up_to_11():
    # every tree with n <= 11 at every root, and one relabeled copy of each
    rng = random.Random(7)
    for t in trees_up_to(11):
        assert_rooted_numbers_match_reference(t)
        assert_rooted_numbers_match_reference(relabeled(t, rng))


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_rooted_numbers_match_reference_seeded(name, t):
    assert_rooted_numbers_match_reference(t)


def test_rooted_numbers_match_reference_random():
    rng = random.Random(17)
    for _ in range(40):
        assert_rooted_numbers_match_reference(random_tree(rng, rng.randint(12, 200)))


def test_rooted_numbers_match_reference_wide():
    assert_rooted_numbers_match_reference(joined_at_one_root([10]))


def test_rooted_numbers_match_reference_on_chains():
    # odd paths have a vertex center and even ones an edge center, so every walk is a chain; spiders and
    # caterpillars add chains that end at a vertex of several children
    rng = random.Random(31)
    trees = [path(n) for n in range(1, 41)]
    trees += [spider(n, legs) for n in (2, 5, 12, 40, 121) for legs in (1, 2, 3, 7) if legs < n]
    trees += [caterpillar(rng.randint(1, 150), rng) for _ in range(30)]
    for t in trees:
        assert_rooted_numbers_match_reference(t)


def test_branch_toward_the_center_has_no_twin():
    # the lemma behind the rooted numbers: rooted at any x off the center, the
    # child toward the center is taller than its siblings, so alone in its run
    for t in trees_up_to(10):
        an = TreeAnalysis.at_center(t)
        for x in range(t.n):
            if x in an.roots:
                continue
            at_x = TreeAnalysis.of(root_at(t, x))
            toward = at_x.ids[an.rt.parent[x]]
            assert dict(at_x.sigs[at_x.ids[x]])[toward] == 1, (t.adj, x)


@pytest.mark.parametrize("w", [-1, 5])
def test_rooted_numbers_reject_an_out_of_range_root(w):
    t = path(5)
    want = outcome(root_at, t, w)
    an = TreeAnalysis.at_center(t)
    for at_root in (lambda: a_at_root(an, a_by_class(an), w), lambda: _at_root(an, aut_by_class(an), _aut_product, w)):
        assert outcome(at_root) == want == Raised(ValueError, f"root {w} out of range 0..4")


def test_rooted_numbers_reuse_the_center_analysis(monkeypatch):
    # once the tree holds its center analysis, no rooted number analyses another rooting
    t = spider(40, 3)
    TreeAnalysis.at_center(t)
    calls = recorded(monkeypatch, (TreeAnalysis, "of"))
    for w in range(t.n):
        rt = root_at(t, w)
        asym_rooted(rt)
        aut_order_rooted(rt)
    assert calls == []


def assert_rooted_loop_matches_every_root(t: Tree, rng: random.Random) -> None:
    # the first call, at a random root, computes the class values and may keep them; the rest may read them
    first = rng.randrange(t.n)
    order = [first] + [w for w in range(t.n) if w != first]
    got = {w: asym_rooted(root_at(t, w)) for w in order}
    assert tuple(got[w] for w in range(t.n)) == asym_at_every_root(Tree(t.n, t.adj)), t.adj


def test_rooted_loop_matches_every_root_small():
    rng = random.Random(35)
    for t in trees_up_to(10):
        assert_rooted_loop_matches_every_root(t, rng)


def test_rooted_loop_matches_every_root_on_paths():
    # a path's values pass 64 bits per vertex at n = 501, 503, 505 and from n = 507 on, so both sides of the budget
    rng = random.Random(36)
    kept = set()
    for n in range(1, 601):
        t = path(n)
        assert_rooted_loop_matches_every_root(t, rng)
        kept.add("_a" in TreeAnalysis.at_center(t).__dict__)
    assert kept == {True, False}


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_rooted_loop_matches_every_root_seeded(name, t):
    assert_rooted_loop_matches_every_root(t, random.Random(name))


class CountingSigs(tuple):
    """A class table that counts the loops over it, which ``a_by_class`` makes and the rooted walk does not."""

    loops = 0

    def __iter__(self):
        CountingSigs.loops += 1
        return super().__iter__()


@pytest.mark.parametrize("make,loops", [(lambda: spider(301, 3), 1), (lambda: path(300), 1), (lambda: path(600), 600)],
                         ids=["spider", "path", "path_past_budget"])
def test_rooted_loop_computes_class_values_once_within_budget(monkeypatch, make, loops):
    # the budget is 64 bits per vertex: the spider's 101 classes keep 5,449 bits (of 19,264), path(300)'s 150 classes
    # 11,475 (of 19,200); path(600)'s 300 classes hold 45,450 bits, past its 38,400, so every call recomputes them
    t = make()
    an = TreeAnalysis.at_center(t)
    object.__setattr__(an, "sigs", CountingSigs(an.sigs))
    monkeypatch.setattr(CountingSigs, "loops", 0)
    for w in range(t.n):
        asym_rooted(root_at(t, w))
    assert CountingSigs.loops == loops


def broom(handle: int, bristles: int) -> Tree:
    """A path of ``handle`` vertices with ``bristles`` leaves at its last vertex."""
    edges = [(i, i + 1) for i in range(handle - 1)] + [(handle - 1, handle + j) for j in range(bristles)]
    return Tree.from_edges(handle + bristles, edges)


def hairy_caterpillar(spine: int, hair: int) -> Tree:
    """A path of ``spine`` vertices with a path of ``hair`` vertices hanging from each spine vertex."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        first = spine + i * hair
        edges += [(i, first)] + [(v, v + 1) for v in range(first, first + hair - 1)]
    return Tree.from_edges(spine * (hair + 1), edges)


def chain_corpus() -> list[Tree]:
    """Paths, 1-3-leg spiders, caterpillars with long hairs and brooms, relabeled, on both sides of the budget."""
    rng = random.Random(43)
    trees = [path(n) for n in (*range(1, 30), 499, 500, 501, 506, 507, 600)]
    trees += [spider(n, legs) for n in (7, 40, 301, 900, 1200) for legs in (1, 2, 3)]
    trees += [hairy_caterpillar(s, h) for s, h in ((2, 1), (3, 20), (5, 31), (12, 8), (4, 150), (3, 300))]
    trees += [broom(h, b) for h, b in ((1, 3), (2, 2), (30, 3), (200, 5), (600, 2))]
    return [relabeled(t, rng) for t in trees]


def assert_walk_matches_every_root(t: Tree, rng: random.Random) -> bool:
    """The rooted walk at every vertex of a fresh tree, in a shuffled order; whether the class a-values were kept."""
    order = list(range(t.n))
    rng.shuffle(order)  # the first query, which makes the pointers, climbs from anywhere
    got = {w: (asym_rooted(root_at(t, w)), aut_order_rooted(root_at(t, w))) for w in order}
    fresh = Tree(t.n, t.adj)
    an = TreeAnalysis.at_center(fresh)
    aut = aut_by_class(an)
    want = zip(asym_at_every_root(fresh), (aut[c] * b for c, b in zip(an.ids, _toward_center(an, aut, _aut_product))))
    assert [got[w] for w in range(t.n)] == list(want), t.adj
    if t.n <= 40:
        for w in range(t.n):
            rt = root_at(fresh, w)
            assert got[w] == (reference_asym_rooted(rt), reference_aut_order_rooted(rt)), (t.adj, w)
    return "_a" in TreeAnalysis.at_center(t).__dict__


def test_rooted_walk_matches_every_root_on_chains_in_any_order():
    rng = random.Random(44)
    kept = {assert_walk_matches_every_root(t, rng) for t in chain_corpus()}
    assert kept == {True, False}


def test_chain_pointers_name_the_top_of_each_run():
    # every vertex's entry is the top of its run of only-child parents (a center end, or a vertex with siblings)
    # and the steps to it: (v, 0) at a center end and where v's parent has other children
    for t in chain_corpus():
        an = TreeAnalysis.at_center(t)
        parent, children, roots = an.rt.parent, an.children, an.roots
        tops, steps = _chain_pointers(an)
        for v in range(t.n):
            y, k = v, 0
            while y not in roots and len(children[parent[y]]) == 1:
                y, k = parent[y], k + 1
            assert (tops[v], steps[v]) == (y, k), (t.adj, v)


class CountingParent(tuple):
    """A parent table that counts its reads."""

    reads = 0

    def __getitem__(self, v):
        CountingParent.reads += 1
        return super().__getitem__(v)


def test_rooted_loop_climbs_each_vertex_once(monkeypatch):
    # one parent at a time, a loop over every root of a path climbs n^2/4 steps; the pointers, made in one pass
    # that reads each parent once, let every walk jump each run of only children in one step
    for t in (path(1001), spider(1000, 3), broom(1000, 2)):
        an = TreeAnalysis.at_center(t)
        object.__setattr__(an.rt, "parent", CountingParent(an.rt.parent))
        monkeypatch.setattr(CountingParent, "reads", 0)
        for w in an.rt.bfs_order:  # the first walk that meets a run makes the pointers
            aut_order_rooted(root_at(t, w))
        assert CountingParent.reads <= 4 * t.n


@pytest.mark.parametrize("make", [lambda: path(301), lambda: spider(301, 3), lambda: hairy_caterpillar(5, 20)],
                         ids=["path", "spider", "caterpillar"])
def test_only_a_rooted_walk_makes_chain_pointers(make):
    # the unrooted numbers, the coloring, its checks and both corpus scans read no chain; a walk up from a leaf does
    t = make()
    coloring = construct_distinguishing(t)
    assert verify_distinguishing(t, coloring) and asym_unrooted(t) > 0
    verify_distinguishing(t, coloring, pinned=t.n - 1)
    run_theorem_suite([t])
    conjecture_check(t)
    assert "_up" not in TreeAnalysis.at_center(t).__dict__
    asym_rooted(root_at(t, t.n - 1))
    assert "_up" in TreeAnalysis.at_center(t).__dict__


def test_all_roots_memory_is_linear_at_a_wide_vertex():
    # vertex 0 has 551 pairwise non-isomorphic branches; one run table per up
    # class took 20.5 MB there, against 0.5 MB for the whole center analysis
    t = joined_at_one_root([12])
    assert t.n == 6613 and len(t.adj[0]) == 551
    an = TreeAnalysis.at_center(t)
    ceiling = traced(lambda: TreeAnalysis.of(an.rt))[1]
    for run in (asym_at_every_root, conjecture_check):
        assert traced(lambda: run(t))[1] < ceiling, run.__name__


def test_conjecture_check_memory_on_a_long_spider():
    # a leg vertex's exact b(x) is the value of the rest of the tree, up to n bits: 305.2 MiB at this size
    # with exact values, 8.7 MiB capped (3.11), most of it the center analysis
    t = spider(50000, 6)
    assert traced(lambda: conjecture_check(t))[1] < 16 * 2**20


def test_conjecture_check_memory_on_a_long_path():
    # a path's exact class values total about n^2/8 bits: 41.25 MiB at this size with exact values,
    # 0.59 MiB capped (3.11), with the center analysis built before the probe
    t = path(50000)
    TreeAnalysis.at_center(t)
    assert traced(lambda: conjecture_check(t))[1] < 2 * 2**20


@pytest.fixture(scope="module")
def twins_text() -> str:
    return serialize_edge_list(joined_at_one_root([11, 12], copies=8))


def test_analyze_all_roots_on_a_wide_tree_of_twins(twins_text, monkeypatch, capsys):
    # 8 copies of each of the 786 free trees on 11 and 12 vertices at one root:
    # tracemalloc peak 42 MB on Python 3.11, most of it the edge-list reader;
    # 58 MB with one run table per up class
    monkeypatch.setattr(sys, "stdin", io.StringIO(twins_text))
    code, peak = traced(lambda: main(["analyze", "-", "--all-roots", "--json"]))
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["n"] == 73577
    assert report["roots"] == {str(w): "0" for w in range(73577)}
    assert peak < 50 * 2**20
