"""The rerooting pass against the per-root computation it replaced.

``reference_conjecture_check`` is the earlier ``conjecture_check`` body: one
rooting, one analysis and one a-table per vertex. The new pass must give the
same report, violation witness included, and the same a(T,w) at every root.
"""

import random

import pytest

from treesym import ConjectureReport, Tree, asym_at_every_root, asym_rooted, asym_unrooted, conjecture_check, relabel, root_at
from treesym.asym import a_at_every_root, a_by_class
from treesym.canon import Rerooting, TreeAnalysis
from treesym.corpus import kary_tree, random_tree, spider

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


def test_corpus_has_violations_and_clean_trees():
    # the witness comparison only means something if both outcomes occur
    reports = [conjecture_check(t) for t in small_corpus()]
    assert any(r.violation for r in reports)
    assert any(r.violation is None for r in reports)
    assert any(r.violation and r.violation[0] > 0 for r in reports)


def test_up_classes_share_the_down_id_space():
    # path 0-1-2-3 rooted at 0: the branch at 2 away from 3 is the 3-path
    # rooted at its end, which is also the down class of vertex 1
    rr = Rerooting.of(path(4))
    assert rr.up[3] == rr.down.ids[1]
    assert rr.up[0] == -1
    assert rr.branches(2) == [rr.up[2], rr.down.ids[3]]


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
