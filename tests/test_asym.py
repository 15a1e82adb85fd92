import random

import pytest
from hypothesis import given, settings

from treesym import (
    Tree,
    a_values,
    asym_rooted,
    asym_unrooted,
    aut_order,
    aut_order_rooted,
    brute_asym,
    group_order_bound_check,
    is_2_distinguishable,
    kary_tree,
    lobed_extremal,
    motion,
    random_tree,
    root_at,
    spider,
)

from .conftest import random_trees, trees_up_to


def test_k1_rooted(k1):
    assert asym_rooted(root_at(k1, 0)) == 2


def test_p3_rooted_at_center(p3):
    assert asym_rooted(root_at(p3, 0)) == 2


def test_k13_rooted_at_center(k13):
    assert asym_rooted(root_at(k13, 0)) == 0


def test_extremal_lobe_values():
    t = lobed_extremal(4)
    rt = root_at(t, 0)
    # each lobe is a hanging 2-path with a = 4; the root combines four of them
    vals = a_values(rt)
    lobe_roots = rt.children[0]
    assert all(vals[x] == 4 for x in lobe_roots)
    assert asym_rooted(rt) == 2
    assert asym_unrooted(t) == 2


def test_unrooted_examples(k1, k2, p4, p6, k13, asym7):
    assert asym_unrooted(k1) == 2
    assert asym_unrooted(k2) == 1
    assert asym_unrooted(p4) == 6
    assert asym_unrooted(p6) == 28
    assert asym_unrooted(k13) == 0
    assert asym_unrooted(asym7) == 2**7


def test_edge_center_non_isomorphic_halves():
    # center edge (2, 4); halves: a 2-chain + leaf at 2 vs a 2-chain at 4
    t = Tree.from_edges(8, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (4, 7)])
    rep = brute_asym(t)
    assert asym_unrooted(t) == rep.orbit_count
    assert aut_order(t) == rep.aut_order


def test_is_2_distinguishable(k13, p4, asym7):
    assert not is_2_distinguishable(k13)
    assert is_2_distinguishable(p4)
    assert is_2_distinguishable(asym7)


def test_group_order_bound_examples(k2, p4, asym7, k13):
    c = group_order_bound_check(k2)
    assert (c.holds, c.product, c.bound) == (True, 2, 4)
    c = group_order_bound_check(p4)
    assert (c.holds, c.product, c.bound) == (True, 12, 16)
    c = group_order_bound_check(asym7)
    assert c.product == c.bound == 2**7
    with pytest.raises(ValueError):
        group_order_bound_check(k13)


def test_oracle_equivalence_exhaustive_small():
    for t in trees_up_to(8):
        rep = brute_asym(t)
        assert rep.orbit_count == asym_unrooted(t)
        assert rep.aut_order == aut_order(t)
        # regular action: total distinguishing = a * |Aut|
        assert rep.distinguishing_count == rep.orbit_count * rep.aut_order
        for w in range(t.n):
            assert brute_asym(t, pinned=w).orbit_count == asym_rooted(root_at(t, w))


def test_oracle_at_every_root_past_n_10():
    # the closed forms against the census beyond the exhaustive n <= 10 corpus: seeded trees of order 11-13,
    # a spider and the ternary tree of depth 2 (|Aut| = 1,296), unpinned and at every root
    rng = random.Random(3911)
    trees = [random_tree(rng, n) for n in (11, 11, 11, 12, 12, 12, 13, 13, 13, 13)]
    for t in [*trees, spider(12, 3), kary_tree(13, 3)]:
        rep = brute_asym(t)
        assert (rep.orbit_count, rep.aut_order) == (asym_unrooted(t), aut_order(t)), t.edges()
        for w in range(t.n):
            rep, rt = brute_asym(t, pinned=w), root_at(t, w)
            assert (rep.orbit_count, rep.aut_order) == (asym_rooted(rt), aut_order_rooted(rt)), (t.edges(), w)


def test_rooted_dominates_unrooted():
    for t in trees_up_to(8):
        a = asym_unrooted(t)
        for w in range(t.n):
            assert a <= asym_rooted(root_at(t, w))


@given(random_trees(max_n=14))
@settings(max_examples=80)
def test_upper_bound_with_equality_iff_asymmetric(t):
    a = asym_unrooted(t)
    assert a <= 1 << t.n
    assert (a == 1 << t.n) == (aut_order(t) == 1)


def test_rooted_lower_bound_small_corpus():
    # rooted lower bound: finite motion m, max degree <= 2^(m/2), root degree < 2^(m/2)
    for t in trees_up_to(9):
        m = motion(t)
        if m.is_asymmetric:
            continue
        threshold = 1 << (m.moved // 2)
        if t.delta > threshold:
            continue
        for w in range(t.n):
            if t.degree(w) < threshold:
                assert asym_rooted(root_at(t, w)) >= 2 * threshold


def test_binomial_zero_propagation(k13):
    # mu = 3 > a(leaf) = 2 zeroes the product all the way up
    chained = Tree.from_edges(5, [(0, 1), (1, 2), (1, 3), (1, 4)])
    assert asym_rooted(root_at(chained, 0)) == 0
    assert asym_rooted(root_at(k13, 0)) == 0
