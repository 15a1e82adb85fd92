"""The all-roots pass against the per-root computation and the rerooting it replaced.

``reference_conjecture_check`` is the earlier ``conjecture_check`` body: one
rooting, one analysis and one a-table per vertex. The new pass must give the
same report, violation witness included, and the same a(T,w) at every root.
``Rerooting`` and ``a_at_every_root`` are the earlier all-roots pass: one class
id per "up" branch (the branch at x's parent away from x), interned by run table
in a second id space. ``reference_rerooting`` builds it rooted at vertex 0 and
``reference_center_rerooting`` from the center analysis, with sorted keys and
``insort``/``bisect``; both must give the same branch classes. The new pass,
``canon._toward_center``, keeps no up class: it gives the value of the branch
toward the center, which must equal the value of the reference's up class.
``reference_rerooting_conjecture_check`` is the ``conjecture_check`` that read
the reference's branch classes; it is fast enough for the wide trees.
``reference_asym_rooted`` and ``reference_aut_order_rooted`` are the earlier
``asym_rooted`` and ``aut_order_rooted``: one analysis of the tree rooted at w.
The new ones read the center analysis along the path from w to the center.
"""

import io
import json
import random
import sys
import tracemalloc
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

import pytest

from treesym import (
    ConjectureReport,
    Tree,
    asym_at_every_root,
    asym_rooted,
    asym_unrooted,
    aut_order_rooted,
    conjecture_check,
    relabel,
    root_at,
    serialize_edge_list,
)
from treesym.asym import _a_product, a_at_root, a_by_class, asym_of
from treesym.autom import _aut_product, aut_by_class, aut_order_of
from treesym.canon import TreeAnalysis, _at_root, _runs, _toward_center
from treesym.cli import main
from treesym.corpus import all_trees, kary_tree, random_tree, spider

from .conftest import branch_runs, path, relabeled_families, star, trees_up_to


@dataclass(frozen=True, eq=False)
class Rerooting:
    """The branch classes at every vertex: ``up[x]`` is the class of the branch at x's parent away from x.

    At a vertex center the root has no up branch (-1); at an edge center each half is the other's up
    branch. Up classes share the down id space, so ``sigs`` is the down table followed by the up classes.
    """

    down: TreeAnalysis
    up: tuple[int, ...]
    sigs: tuple[tuple[tuple[int, int], ...], ...]


def a_at_every_root(rr: Rerooting) -> list[int]:
    """a(T,w) for every vertex w, from the branch classes at w."""
    a, ids, sigs = a_by_class(rr), rr.down.ids, rr.sigs
    return [_a_product(a, branch_runs(sigs[ids[w]], k_up)) for w, k_up in enumerate(rr.up)]


def reference_asym_rooted(rt) -> int:
    an = TreeAnalysis.of(rt)
    return asym_of(an, a_by_class(an))


def reference_aut_order_rooted(rt) -> int:
    return aut_order_of(TreeAnalysis.of(rt))


def reference_conjecture_check(t: Tree) -> ConjectureReport:
    violation = None
    for w in range(t.n):
        an = TreeAnalysis.of(root_at(t, w))
        a = a_by_class(an)
        mu = dict(an.sigs[an.ids[w]])
        for x in an.rt.children[w]:
            k = an.ids[x]
            if mu[k] > a[k]:
                violation = (w, x, mu[k], a[k])
                break
        if violation:
            break
    local_ok = violation is None
    dist = asym_unrooted(t) > 0
    return ConjectureReport(local_ok == dist, local_ok, dist, violation)


def reference_rerooting(t: Tree) -> Rerooting:
    down = TreeAnalysis.of(root_at(t, 0))
    ids = down.ids
    sigs = list(down.sigs)
    index = {tuple(k for k, mu in sig for _ in range(mu)): c for c, sig in enumerate(sigs)}
    up = [-1] * t.n
    for p in down.rt.bfs_order:
        around = [ids[x] for x in down.children[p]]
        if up[p] >= 0:
            insort(around, up[p])
        for k, run in groupby(down.children[p], key=ids.__getitem__):
            i = bisect_left(around, k)
            key = tuple(around[:i] + around[i + 1 :])
            cid = index.setdefault(key, len(sigs))
            if cid == len(sigs):
                sigs.append(_runs(key))
            for x in run:
                up[x] = cid
    return Rerooting(down, tuple(up), tuple(sigs))


def reference_center_rerooting(t: Tree) -> Rerooting:
    down = TreeAnalysis.at_center(t)
    ids = down.ids
    sigs = list(down.sigs)
    index = {tuple(k for k, mu in sig for _ in range(mu)): c for c, sig in enumerate(sigs)}
    up = [-1] * t.n
    if len(down.roots) == 2:
        u, v = down.roots
        up[u], up[v] = ids[v], ids[u]
    for p in down.rt.bfs_order:
        around = [ids[x] for x in down.children[p]]
        if up[p] >= 0:
            insort(around, up[p])
        for k, run in groupby(down.children[p], key=ids.__getitem__):
            i = bisect_left(around, k)
            key = tuple(around[:i] + around[i + 1 :])
            cid = index.setdefault(key, len(sigs))
            if cid == len(sigs):
                sigs.append(_runs(key))
            for x in run:
                up[x] = cid
    return Rerooting(down, tuple(up), tuple(sigs))


def branches(rr: Rerooting, w: int) -> list[int]:
    """Class of the branch at w through each neighbor, in ``adj[w]`` order."""
    p = rr.down.rt.parent[w]
    return [rr.up[w] if y == p else rr.down.ids[y] for y in rr.down.rt.tree.adj[w]]


def reference_rerooting_conjecture_check(t: Tree) -> ConjectureReport:
    """The local condition from the rerooting: each neighbor's branch class and its multiplicity at w."""
    rr = reference_center_rerooting(t)
    a = a_by_class(rr)
    violation = None
    for w in range(t.n):
        ks = branches(rr, w)
        mu = Counter(ks)
        violation = next(((w, x, mu[k], a[k]) for x, k in zip(t.adj[w], ks) if mu[k] > a[k]), None)
        if violation:
            break
    local_ok = violation is None
    dist = asym_of(rr.down, a) > 0
    return ConjectureReport(local_ok == dist, local_ok, dist, violation)


def reference_over_conjecture_check(t: Tree) -> ConjectureReport:
    """The previous scan: a table of the classes with a run longer than its class's a, and b(w) = 0."""
    an = TreeAnalysis.at_center(t)
    a = a_by_class(an)
    b = _toward_center(an, a, _a_product)
    ids, sigs, parent, roots = an.ids, an.sigs, an.rt.parent, an.roots
    over = [any(mu > a[k] for k, mu in sig) for sig in sigs]
    violation = None
    for w in range(t.n):
        if b[w] == 0 or over[ids[w]]:
            mu = dict(sigs[ids[w]])
            ks = ((x, 1, b[w]) if x == parent[w] or x in roots else (x, mu[ids[x]], a[ids[x]]) for x in t.adj[w])
            violation = next((w, x, m, a_x) for x, m, a_x in ks if m > a_x)
            break
    local_ok = violation is None
    dist = asym_of(an, a) > 0
    return ConjectureReport(local_ok == dist, local_ok, dist, violation)


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


def shuffled(rng: random.Random, t: Tree) -> Tree:
    perm = list(range(t.n))
    rng.shuffle(perm)
    return relabel(t, perm)


def small_corpus() -> list[Tree]:
    rng = random.Random(3)
    out = []
    for t in trees_up_to(10):
        out.append(t)
        out.extend(shuffled(rng, t) for _ in range(3))
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
            out.append((f"{name}{n}", shuffled(rng, t)))
    return out


SEEDED = seeded_corpus()


def test_conjecture_matches_per_root_reference_small():
    for t in small_corpus():
        assert conjecture_check(t).to_json() == reference_conjecture_check(t).to_json(), t.adj


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_conjecture_matches_per_root_reference_seeded(name, t):
    assert conjecture_check(t).to_json() == reference_conjecture_check(t).to_json()


def assert_every_root_matches_rooted(t: Tree) -> None:
    want = [reference_asym_rooted(root_at(t, w)) for w in range(t.n)]
    assert a_at_every_root(reference_center_rerooting(t)) == want, t.adj
    assert asym_at_every_root(t) == tuple(want), t.adj


def test_a_at_every_root_matches_rooted_small():
    for t in small_corpus():
        assert_every_root_matches_rooted(t)


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_a_at_every_root_matches_rooted_seeded(name, t):
    assert_every_root_matches_rooted(t)


def test_asym_at_every_root_matches_per_root_rooting():
    trees = trees_up_to(9) + relabeled_families(12, (4, 9, 30, 120, 300))
    for t in trees:
        got = asym_at_every_root(t)
        assert isinstance(got, tuple)
        assert got == tuple(reference_asym_rooted(root_at(t, w)) for w in range(t.n)), t.adj


def assert_same_branch_classes(t: Tree) -> None:
    new, old = reference_center_rerooting(t), reference_rerooting(t)
    assert a_at_every_root(new) == a_at_every_root(old), t.adj
    # the class of every directed edge (w -> x): the map old id -> new id is a bijection
    pairs = {(k_old, k_new) for w in range(t.n) for k_old, k_new in zip(branches(old, w), branches(new, w))}
    assert len({k for k, _ in pairs}) == len(pairs) == len({k for _, k in pairs}), t.adj


def test_center_rerooting_matches_root_zero_small():
    for t in small_corpus():
        assert_same_branch_classes(t)


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_center_rerooting_matches_root_zero_seeded(name, t):
    assert_same_branch_classes(t)


def with_three_leaves(rng: random.Random, t: Tree) -> Tree:
    """``t`` with three new leaves at one random vertex, so a(T) = 0."""
    w = rng.randrange(t.n)
    return Tree.from_edges(t.n + 3, list(t.edges()) + [(w, t.n + i) for i in range(3)])


def test_conjecture_scan_reads_a_of_t_w():
    # every tree with n <= 10, seeded trees up to n = 500, the wide trees, and trees with
    # a(T) = 0: three twin leaves, spiders with more legs than a leg has colorings
    rng = random.Random(41)
    trees = trees_up_to(10) + [t for _, t in SEEDED] + relabeled_families(41, (4, 13, 60, 250, 500))
    trees += [random_tree(rng, rng.randint(2, 500)) for _ in range(40)]
    trees += [joined_at_one_root([10]), joined_at_one_root([12]), joined_at_one_root([11, 12], copies=8)]
    zero = [with_three_leaves(rng, random_tree(rng, rng.randint(1, 500))) for _ in range(60)]
    zero += [spider(1 + legs * length, legs) for length in (1, 2, 3) for legs in range((1 << length) + 1, 12)]
    assert all(asym_unrooted(t) == 0 for t in zero)
    reports = []
    for t in trees + zero:
        reports.append(conjecture_check(t))
        assert reports[-1] == reference_over_conjecture_check(t), t.adj
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
    # b(x) of the run-table pass is the value of x's up class in the sorted-keys reference,
    # for a and for |Aut|; at a vertex center, which has no up class, b is 1
    ref, an = reference_center_rerooting(t), TreeAnalysis.at_center(t)
    for by_class, product in ((a_by_class, _a_product), (aut_by_class, _aut_product)):
        ref_vals = by_class(ref)
        assert _toward_center(an, by_class(an), product) == [ref_vals[k] if k >= 0 else 1 for k in ref.up], t.adj


def test_run_table_rerooting_matches_sorted_keys_small():
    for t in small_corpus():
        assert_same_run_tables(t)


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_run_table_rerooting_matches_sorted_keys_seeded(name, t):
    assert_same_run_tables(t)


def test_run_table_rerooting_matches_sorted_keys_wide():
    t = joined_at_one_root([10])
    assert t.n == 1061
    assert len(set(branches(reference_center_rerooting(t), 0))) == 106
    assert_same_run_tables(t)


def previous_toward_center(an: TreeAnalysis, vals: list[int], product) -> list[int]:
    """``_toward_center`` with one ``groupby`` per vertex over its children's class ids, kept as the reference."""
    ids, sigs = an.ids, an.sigs
    b = [1] * an.rt.tree.n
    if len(an.roots) == 2:
        u, v = an.roots
        b[u], b[v] = vals[ids[v]], vals[ids[u]]
    for p in an.rt.bfs_order:
        for k, run in groupby(an.children[p], key=ids.__getitem__):
            value = b[p] * product(vals, sigs[ids[p]], k)
            for x in run:
                b[x] = value
    return b


def assert_toward_center_matches_previous(t: Tree) -> None:
    # the same values from the same products, in the same order: one per run of twins
    an = TreeAnalysis.at_center(t)
    for by_class, product in ((a_by_class, _a_product), (aut_by_class, _aut_product)):
        vals = by_class(an)

        def logged(calls):
            def counting(vals, runs, drop):
                calls.append((runs, drop))
                return product(vals, runs, drop)

            return counting

        new_calls, old_calls = [], []
        assert _toward_center(an, vals, logged(new_calls)) == previous_toward_center(an, vals, logged(old_calls)), t.adj
        assert new_calls == old_calls, t.adj


def test_toward_center_matches_previous_small():
    trees = trees_up_to(10)
    assert {len(TreeAnalysis.at_center(t).roots) for t in trees} == {1, 2}  # vertex and edge centers
    for t in trees:
        assert_toward_center_matches_previous(t)


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_toward_center_matches_previous_seeded(name, t):
    assert_toward_center_matches_previous(t)


def test_toward_center_matches_previous_wide():
    for t in [star(n) for n in (2, 3, 4, 50, 400)] + [joined_at_one_root([10]), joined_at_one_root([11, 12], copies=8)]:
        assert_toward_center_matches_previous(t)


def test_all_roots_outputs_match_the_rerooting_reference(monkeypatch, capsys):
    # every tree with n <= 10 and one relabeling of each, the seeded corpus,
    # 40 random trees with n <= 400 and two wide vertices (106 and 550 child classes)
    rng = random.Random(23)
    trees = [u for t in trees_up_to(10) for u in (t, shuffled(rng, t))] + [t for _, t in SEEDED]
    trees += [random_tree(rng, rng.randint(2, 400)) for _ in range(40)]
    trees += [joined_at_one_root([10]), joined_at_one_root([12])]
    for t in trees:
        want = a_at_every_root(reference_center_rerooting(t))
        assert asym_at_every_root(t) == tuple(want), t.adj
        assert conjecture_check(t).to_json() == reference_rerooting_conjecture_check(t).to_json(), t.adj
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_edge_list(t)))
        assert main(["analyze", "-", "--all-roots", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["roots"] == {str(w): str(a_w) for w, a_w in enumerate(want)}


def test_branch_runs_edits_the_multiset():
    # against the sorted-list edit, on random multisets with add and drop in,
    # below, between and above the runs, equal to each other, or absent (-1)
    rng = random.Random(5)
    for _ in range(3000):
        key = sorted(rng.choices(range(8), k=rng.randrange(6)))
        add = rng.choice([-1, rng.randrange(9)])
        drop = rng.choice([-1] + key) if key else -1
        edited = list(key)
        if add >= 0:
            insort(edited, add)
        if drop >= 0:
            edited.remove(drop)
        assert branch_runs(_runs(tuple(key)) if key else (), add, drop) == tuple(sorted(Counter(edited).items()))


def test_branch_runs_are_the_branch_classes():
    for t in small_corpus() + [t for _, t in SEEDED]:
        rr = reference_center_rerooting(t)
        for w in range(t.n):
            runs = branch_runs(rr.sigs[rr.down.ids[w]], rr.up[w])
            assert runs == tuple(sorted(Counter(branches(rr, w)).items())), t.adj


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
    import sys

    calls = []
    real = root_at

    def counting(t, w):
        calls.append(w)
        return real(t, w)

    for name, module in list(sys.modules.items()):
        if name.startswith("treesym") and getattr(module, "root_at", None) is real:
            monkeypatch.setattr(module, "root_at", counting)
    conjecture_check(path(50))
    assert 1 <= len(calls) <= 2


@pytest.mark.parametrize("make", [lambda: path(50), lambda: spider(40, 3)], ids=["path", "spider"])
def test_all_roots_callers_root_the_tree_once(monkeypatch, capsys, make):
    # the rerooting starts from the center analysis that the tree keeps, so
    # each caller makes the one center rooting and analysis in all
    import io
    import json
    import sys

    calls = []
    real_root_at, real_of = root_at, TreeAnalysis.of

    def counting_root_at(t, w):
        calls.append("root_at")
        return real_root_at(t, w)

    def counting_of(rt, cut=None):
        calls.append("of")
        return real_of(rt, cut)

    for name, module in list(sys.modules.items()):
        if name.startswith("treesym") and getattr(module, "root_at", None) is real_root_at:
            monkeypatch.setattr(module, "root_at", counting_root_at)
    monkeypatch.setattr(TreeAnalysis, "of", staticmethod(counting_of))

    def analyze_all_roots(t):
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_edge_list(t)))
        assert main(["analyze", "-", "--all-roots", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["roots"]) == t.n

    for run in (conjecture_check, asym_at_every_root, analyze_all_roots):
        calls.clear()
        run(make())
        assert sorted(calls) == ["of", "root_at"], run.__name__


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
        assert_rooted_numbers_match_reference(shuffled(rng, t))


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_rooted_numbers_match_reference_seeded(name, t):
    assert_rooted_numbers_match_reference(t)


def test_rooted_numbers_match_reference_random():
    rng = random.Random(17)
    for _ in range(40):
        assert_rooted_numbers_match_reference(random_tree(rng, rng.randint(12, 200)))


def test_rooted_numbers_match_reference_wide():
    assert_rooted_numbers_match_reference(joined_at_one_root([10]))


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
    with pytest.raises(ValueError) as want:
        root_at(t, w)
    an = TreeAnalysis.at_center(t)
    for at_root in (lambda: a_at_root(an, a_by_class(an), w), lambda: _at_root(an, aut_by_class(an), _aut_product, w)):
        with pytest.raises(ValueError) as got:
            at_root()
        assert str(got.value) == str(want.value) == f"root {w} out of range 0..4"


def test_rooted_numbers_reuse_the_center_analysis(monkeypatch):
    # once the tree holds its center analysis, no rooted number analyses another rooting
    t = spider(40, 3)
    TreeAnalysis.at_center(t)
    calls = []
    real_of = TreeAnalysis.of

    def counting_of(rt, cut=None):
        calls.append(rt.root)
        return real_of(rt, cut)

    monkeypatch.setattr(TreeAnalysis, "of", staticmethod(counting_of))
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
    # a path's values pass 64 bits per class on average from n = 247 on, so both sides of the budget
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


@pytest.mark.parametrize("make,loops", [(lambda: spider(301, 3), 1), (lambda: path(300), 300)], ids=["spider", "path"])
def test_rooted_loop_computes_class_values_once_within_budget(monkeypatch, make, loops):
    # the spider's legs of 100 keep 5,449 bits over 101 classes; the path's 150 classes hold 11,475 bits
    t = make()
    an = TreeAnalysis.at_center(t)
    object.__setattr__(an, "sigs", CountingSigs(an.sigs))
    monkeypatch.setattr(CountingSigs, "loops", 0)
    for w in range(t.n):
        asym_rooted(root_at(t, w))
    assert CountingSigs.loops == loops


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_all_roots_memory_is_linear_at_a_wide_vertex():
    # vertex 0 has 551 pairwise non-isomorphic branches; one run table per up
    # class took 20.5 MB there, against 0.5 MB for the whole center analysis
    t = joined_at_one_root([12])
    assert t.n == 6613 and len(t.adj[0]) == 551
    an = TreeAnalysis.at_center(t)
    ceiling = traced_peak(lambda: TreeAnalysis.of(an.rt))
    for run in (asym_at_every_root, conjecture_check):
        assert traced_peak(lambda: run(t)) < ceiling, run.__name__


@pytest.fixture(scope="module")
def twins_text() -> str:
    return serialize_edge_list(joined_at_one_root([11, 12], copies=8))


def test_analyze_all_roots_on_a_wide_tree_of_twins(twins_text, monkeypatch, capsys):
    # 8 copies of each of the 786 free trees on 11 and 12 vertices at one root:
    # tracemalloc peak 42 MB on Python 3.11, most of it the edge-list reader;
    # 58 MB with one run table per up class
    monkeypatch.setattr(sys, "stdin", io.StringIO(twins_text))
    codes = []
    peak = traced_peak(lambda: codes.append(main(["analyze", "-", "--all-roots", "--json"])))
    report = json.loads(capsys.readouterr().out)
    assert codes == [0] and report["n"] == 73577
    assert report["roots"] == {str(w): "0" for w in range(73577)}
    assert peak < 50 * 2**20
