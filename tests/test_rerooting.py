"""The rerooting pass against the per-root computation it replaced.

``reference_conjecture_check`` is the earlier ``conjecture_check`` body: one
rooting, one analysis and one a-table per vertex. The new pass must give the
same report, violation witness included, and the same a(T,w) at every root.
``reference_rerooting`` is an earlier ``Rerooting.of``, rooted at vertex 0
instead of at the center; both must give the same branch classes.
``reference_center_rerooting`` is the center-rooted ``Rerooting.of`` that
rebuilt sorted keys with ``insort`` and ``bisect``; the run-table edit must
give the same ``up`` and ``sigs``, field by field.
"""

import random
from bisect import bisect_left, insort
from collections import Counter
from itertools import groupby

import pytest

from treesym import (
    ConjectureReport,
    Tree,
    asym_at_every_root,
    asym_rooted,
    asym_unrooted,
    conjecture_check,
    relabel,
    root_at,
    serialize_edge_list,
)
from treesym.asym import a_at_every_root, a_by_class
from treesym.canon import Rerooting, TreeAnalysis, _branch_runs, _runs
from treesym.cli import main
from treesym.corpus import all_trees, kary_tree, random_tree, spider

from .conftest import path, relabeled_families, trees_up_to


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


def test_a_at_every_root_matches_rooted_small():
    for t in small_corpus():
        assert a_at_every_root(Rerooting.of(t)) == [asym_rooted(root_at(t, w)) for w in range(t.n)], t.adj


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_a_at_every_root_matches_rooted_seeded(name, t):
    assert a_at_every_root(Rerooting.of(t)) == [asym_rooted(root_at(t, w)) for w in range(t.n)]


def test_asym_at_every_root_matches_per_root_rooting():
    trees = trees_up_to(9) + relabeled_families(12, (4, 9, 30, 120, 300))
    for t in trees:
        got = asym_at_every_root(t)
        assert isinstance(got, tuple)
        assert got == tuple(asym_rooted(root_at(t, w)) for w in range(t.n)), t.adj


def assert_same_branch_classes(t: Tree) -> None:
    new, old = Rerooting.of(t), reference_rerooting(t)
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


def wide_tree() -> Tree:
    """A root joined to vertex 0 of every free tree on 10 vertices: 106 distinct classes at one vertex."""
    edges, n = [], 1
    for t in all_trees(10):
        edges.extend((n + u, n + v) for u, v in t.edges())
        edges.append((0, n))
        n += t.n
    return Tree.from_edges(n, edges)


def assert_same_run_tables(t: Tree) -> None:
    new, old = Rerooting.of(t), reference_center_rerooting(t)
    assert new.up == old.up, t.adj
    assert new.sigs == old.sigs, t.adj


def test_run_table_rerooting_matches_sorted_keys_small():
    for t in small_corpus():
        assert_same_run_tables(t)


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_run_table_rerooting_matches_sorted_keys_seeded(name, t):
    assert_same_run_tables(t)


def test_run_table_rerooting_matches_sorted_keys_wide():
    t = wide_tree()
    assert t.n == 1061
    assert len(set(branches(Rerooting.of(t), 0))) == 106
    assert_same_run_tables(t)


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
        assert _branch_runs(_runs(tuple(key)) if key else (), add, drop) == tuple(sorted(Counter(edited).items()))


def test_branch_runs_are_the_branch_classes():
    for t in small_corpus() + [t for _, t in SEEDED]:
        rr = Rerooting.of(t)
        for w in range(t.n):
            runs = _branch_runs(rr.sigs[rr.down.ids[w]], rr.up[w])
            assert runs == tuple(sorted(Counter(branches(rr, w)).items())), t.adj


def test_corpus_has_violations_and_clean_trees():
    # the witness comparison only means something if both outcomes occur
    reports = [conjecture_check(t) for t in small_corpus()]
    assert any(r.violation for r in reports)
    assert any(r.violation is None for r in reports)
    assert any(r.violation and r.violation[0] > 0 for r in reports)


def test_up_classes_share_the_down_id_space():
    # path 0-1-2-3 has the edge center (1, 2): each half is the other's up
    # branch, and the branch at 1 away from 0 is the branch at 2 away from 3
    rr = Rerooting.of(path(4))
    assert rr.down.roots == (1, 2)
    assert rr.up[1] == rr.down.ids[2]
    assert rr.up[2] == rr.down.ids[1]
    assert rr.up[0] == rr.up[3]
    assert branches(rr, 2) == [rr.up[2], rr.down.ids[3]]
    # path 0-1-2-3-4 has the vertex center 2, which has no up branch
    rr = Rerooting.of(path(5))
    assert rr.down.roots == (2,)
    assert rr.up[2] == -1
    assert rr.up[0] == rr.up[4] != -1
    assert rr.up[1] == rr.up[3] != -1


def test_star_costs_one_key_per_distinct_class():
    # every leaf of a star rooted at its center gets the same up class, and
    # the whole table has three classes: leaf, star minus a leaf, star
    n = 400
    rr = Rerooting.of(Tree.from_edges(n, [(0, v) for v in range(1, n)]))
    assert len(set(rr.up[1:])) == 1
    assert len(rr.sigs) == 3


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
