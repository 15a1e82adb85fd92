"""The class-value kernels against the ones they replaced, kept here as the reference.

``reference_a_product`` and ``reference_aut_product`` are the earlier products over a
run table: they took one fewer branch only as a table edited by ``branch_runs``, and
paid ``comb``, ``factorial`` and a power on a run of one. ``reference_by_class`` calls
the product once per class, as ``a_by_class`` did. ``reference_at_root`` is the earlier
walk to the center, one edited table and one product per step. The new kernels drop the
branch in place, read a run of one directly, run ``a_by_class`` as one loop and fold the
steps through an only child into one power; every value must be the same.
"""

import random
from math import comb, factorial

import pytest

from treesym import Tree, caterpillar, relabel, spider
from treesym.asym import _a_product, a_by_class
from treesym.autom import _aut_product, aut_by_class
from treesym.canon import TreeAnalysis, _at_root

from .conftest import branch_runs, path, trees_up_to
from .test_rerooting import SEEDED, joined_at_one_root


def reference_a_product(a, pairs):
    acc = 2
    for k, mu in pairs:
        acc *= comb(a[k], mu)
        if acc == 0:
            break
    return acc


def reference_aut_product(vals, sig):
    acc = 1
    for k, mu in sig:
        acc *= factorial(mu) * vals[k] ** mu
    return acc


def reference_by_class(an, product):
    vals = []
    for sig in an.sigs:
        vals.append(product(vals, sig))
    return vals


def reference_at_root(an, vals, product, w):
    ids, sigs, parent, roots = an.ids, an.sigs, an.rt.parent, an.roots
    acc = vals[ids[w]]
    x = w
    while x not in roots:
        p = parent[x]
        acc *= product(vals, branch_runs(sigs[ids[p]], -1, ids[x]))
        x = p
    for r in roots:
        if r != x:
            acc *= vals[ids[r]]
    return acc


KERNELS = ((a_by_class, _a_product, reference_a_product), (aut_by_class, _aut_product, reference_aut_product))


def assert_kernels_match_reference(t: Tree) -> None:
    an = TreeAnalysis.at_center(t)
    for by_class, product, reference in KERNELS:
        vals = reference_by_class(an, reference)
        assert by_class(an) == vals, t.adj
        for sig in an.sigs:
            for drop in (-1, *(k for k, _ in sig)):
                assert product(vals, sig, drop) == reference(vals, branch_runs(sig, -1, drop)), (t.adj, sig, drop)
        for w in range(t.n):
            assert _at_root(an, vals, product, w) == reference_at_root(an, vals, reference, w), (t.adj, w)


def test_kernels_match_reference_up_to_10():
    # every tree with n <= 10 and one relabeled copy of each
    rng = random.Random(29)
    for t in trees_up_to(10):
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert_kernels_match_reference(t)
        assert_kernels_match_reference(relabel(t, perm))


@pytest.mark.parametrize("n", range(1, 41))
def test_kernels_match_reference_on_paths(n):
    # odd n has a vertex center, even n an edge center: every walk is a chain
    assert_kernels_match_reference(path(n))


def test_kernels_match_reference_on_spiders_and_caterpillars():
    rng = random.Random(31)
    trees = [spider(n, legs) for n in (2, 5, 12, 40, 121) for legs in (1, 2, 3, 7) if legs < n]
    trees += [caterpillar(rng.randint(1, 150), rng) for _ in range(30)]
    for t in trees:
        assert_kernels_match_reference(t)


@pytest.mark.parametrize("name,t", SEEDED, ids=[name for name, _ in SEEDED])
def test_kernels_match_reference_seeded(name, t):
    assert_kernels_match_reference(t)


def test_kernels_match_reference_wide():
    # vertex 0 has 551 pairwise non-isomorphic branches
    t = joined_at_one_root([12])
    assert len(t.adj[0]) == 551
    assert_kernels_match_reference(t)


@pytest.mark.parametrize("n,most", [(200, 1), (201, 2)])
def test_chain_steps_cost_one_product_per_root(n, most):
    # on a path every step of the walk below the center passes through an only child:
    # those steps are folded into one power. At an edge center that is the whole walk;
    # a vertex center has two children, so the step into it pays one more product.
    t = path(n)
    an = TreeAnalysis.at_center(t)
    for by_class, _, reference in KERNELS:
        vals = by_class(an)
        for w in range(t.n):
            calls = []

            def counting(vals, runs, drop=-1):
                calls.append(runs)
                return reference(vals, branch_runs(runs, -1, drop))

            assert _at_root(an, vals, counting, w) == reference_at_root(an, vals, reference, w)
            assert len(calls) <= most, (n, w, len(calls))
