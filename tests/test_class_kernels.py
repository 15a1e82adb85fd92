"""The class-value kernels against the ones they replaced, kept as the reference.

``reference_a_product`` and ``reference_aut_product`` are the earlier products over a
run table: they took one fewer branch only as a table with that branch removed, and
paid ``comb``, ``factorial`` and a power on a run of one. ``reference_by_class`` calls
the product once per class, as ``a_by_class`` did. The new kernels drop the branch in
place, read a run of one directly and run ``a_by_class`` as one loop; every value must be
the same. The walk to the center, ``_at_root``, is checked against the tree analysed at
each root in ``test_rerooting``; here only its count of products is.
"""

import random

import pytest

from treesym import Tree, caterpillar, root_at, spider
from treesym.asym import _a_product, a_by_class
from treesym.autom import _aut_product, aut_by_class
from treesym.canon import TreeAnalysis, _at_root

from .conftest import path, relabeled, trees_up_to
from .reference import reference_a_product, reference_aut_product, reference_by_class
from .test_rerooting import SEEDED, joined_at_one_root


def without(sig, drop):
    """The run table ``sig`` less one branch of class ``drop`` (-1: none)."""
    return tuple((k, mu - (k == drop)) for k, mu in sig if mu - (k == drop))


def at_root(t, w, reference):
    """The reference value of the tree analysed at root w."""
    at_w = TreeAnalysis.of(root_at(t, w))
    return reference_by_class(at_w, reference)[at_w.ids[w]]


KERNELS = ((a_by_class, _a_product, reference_a_product), (aut_by_class, _aut_product, reference_aut_product))


def assert_kernels_match_reference(t: Tree) -> None:
    an = TreeAnalysis.at_center(t)
    for by_class, product, reference in KERNELS:
        vals = reference_by_class(an, reference)
        assert by_class(an) == vals, t.adj
        for sig in an.sigs:
            for drop in (-1, *(k for k, _ in sig)):
                assert product(vals, sig, drop) == reference(vals, without(sig, drop)), (t.adj, sig, drop)


def test_kernels_match_reference_up_to_10():
    # every tree with n <= 10 and one relabeled copy of each
    rng = random.Random(29)
    for t in trees_up_to(10):
        assert_kernels_match_reference(t)
        assert_kernels_match_reference(relabeled(t, rng))


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
                return reference(vals, without(runs, drop))

            assert _at_root(an, vals, counting, w) == at_root(t, w, reference)
            assert len(calls) <= most, (n, w, len(calls))
