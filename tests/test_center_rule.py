"""The center rule read from one run table, against the code that wrote out each center case.

a(T), |Aut(T)|, m(T) and the unranking each combine the center's branches. The
reference functions below branch on a vertex center, an edge center and
isomorphic halves; the library reads one run table instead.
"""

import random

import pytest

from treesym import Tree, kary_tree, random_tree, root_at, spider
from treesym.asym import a_by_class, asym_of
from treesym.autom import aut_by_class, aut_order_of, motion_of
from treesym.canon import TreeAnalysis
from treesym.coloring import unrank_of

from .conftest import path, relabeled, relabeled_families, trees_up_to
from .reference import (
    reference_asym_of,
    reference_aut_order_of,
    reference_aut_product,
    reference_by_class,
    reference_motion_of,
    reference_unrank_of,
)


def center_kind(an) -> str:
    if len(an.roots) == 1:
        return "vertex"
    return "iso-halves" if an.iso_halves else "edge"


def assert_matches_reference(an, rng) -> int:
    """Compare the four results on ``an``; returns the number of colorings unranked."""
    a = a_by_class(an)
    total = reference_asym_of(an, a)
    assert asym_of(an, a) == total
    assert aut_by_class(an) == reference_by_class(an, reference_aut_product)
    assert aut_order_of(an) == reference_aut_order_of(an)
    assert motion_of(an) == reference_motion_of(an)
    mu_max = max((mu for sig in an.sigs for _, mu in sig), default=1)
    indices = {0, 1, mu_max, total - 1, rng.randrange(total), rng.randrange(total)} if total else set()
    indices = {i for i in indices if i < total}
    for index in indices:
        assert unrank_of(an, a, index) == reference_unrank_of(an, a, index), (an.rt.tree.adj, an.roots, index)
    for index in (-1, total):
        with pytest.raises(IndexError, match=f"index {index} out of range"):
            unrank_of(an, a, index)
    return len(indices)


def test_center_rule_matches_reference_on_all_small_trees():
    rng = random.Random(51)
    kinds = {}
    for t0 in trees_up_to(10):
        for t in (t0, relabeled(t0, rng), relabeled(t0, rng)):
            for an in (TreeAnalysis.at_center(t), TreeAnalysis.of(root_at(t, rng.randrange(t.n)))):
                kinds[center_kind(an)] = kinds.get(center_kind(an), 0) + assert_matches_reference(an, rng)
    assert min(kinds.values()) > 100 and len(kinds) == 3


def bounded_degree_tree(rng, n: int) -> Tree:
    """A random tree of maximum degree 3, so usually 2-distinguishable: each vertex joins an earlier one of degree < 3."""
    deg, edges = [0] * n, []
    for v in range(1, n):
        u = rng.choice([u for u in range(max(0, v - 40), v) if deg[u] < 3] or [v - 1])
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return Tree.from_edges(n, edges)


def doubled(rng, half: int) -> Tree:
    """Two copies of a random tree joined at one vertex each: isomorphic halves, swapped by an automorphism."""
    if rng.random() < 0.5:
        h = bounded_degree_tree(rng, half)
    else:
        h = random_tree(rng, half)
    r = rng.randrange(half)
    edges = list(h.edges()) + [(u + half, v + half) for u, v in h.edges()] + [(r, r + half)]
    return relabeled(Tree.from_edges(2 * half, edges), rng)


def test_center_rule_matches_reference_on_seeded_large_trees():
    rng = random.Random(52)
    trees = relabeled_families(53, (100, 501, 2000))
    trees += [relabeled(bounded_degree_tree(rng, rng.randrange(100, 2001)), rng) for _ in range(24)]
    trees += [doubled(rng, rng.randrange(50, 1001)) for _ in range(8)]
    trees += [relabeled(t, rng) for t in (path(1000), path(1001), spider(1201, 4), kary_tree(1500, 3))]
    unranked = {}
    for t in trees:
        an = TreeAnalysis.at_center(t)
        unranked[center_kind(an)] = unranked.get(center_kind(an), 0) + assert_matches_reference(an, rng)
    assert unranked["vertex"] >= 20 and unranked["edge"] >= 20 and unranked["iso-halves"] >= 20
