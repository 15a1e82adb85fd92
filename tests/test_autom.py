import operator
import random

import pytest
from hypothesis import given, settings

from treesym import (
    ASYMMETRIC,
    AutomorphismLimitExceeded,
    Motion,
    aut_order,
    aut_order_rooted,
    brute_motion,
    enumerate_automorphisms,
    lobed_extremal,
    motion,
    random_tree,
    relabel,
    root_at,
)
from treesym.asym import asym_at_every_root, asym_rooted
from treesym.autom import _aut_product, aut_by_class
from treesym.canon import TreeAnalysis, _toward_center
from treesym.trees import EdgeCenter, center

from .conftest import random_trees, trees_up_to, trees_with_permutation
from .reference import reference_aut_order_rooted


def test_aut_order_examples(k13, p4, asym7):
    assert aut_order(k13) == 6
    assert aut_order(p4) == 2
    assert aut_order(asym7) == 1


def test_all_smaller_trees_are_symmetric():
    # 7 vertices is the smallest asymmetric tree
    for t in trees_up_to(6):
        assert aut_order(t) >= 2 or t.n == 1


def test_motion_examples(p3, p4):
    assert motion(p3) == Motion(2)
    assert motion(p4) == Motion(4)
    assert brute_motion(p3) == Motion(2)
    assert brute_motion(p4) == Motion(4)


def test_motion_extremal_m4():
    t = lobed_extremal(4)
    assert t.n == 9
    assert motion(t) == Motion(4)
    assert brute_motion(t) == Motion(4)


def test_enumerate_k2(k2):
    assert set(enumerate_automorphisms(k2)) == {(0, 1), (1, 0)}


def test_enumerate_k13(k13):
    auts = list(enumerate_automorphisms(k13))
    assert len(auts) == 6
    assert all(s[0] == 0 for s in auts)
    assert len(set(auts)) == 6


def test_enumerate_p4(p4):
    assert set(enumerate_automorphisms(p4)) == {(0, 1, 2, 3), (3, 2, 1, 0)}


def test_enumerate_limit_overflow(k14):
    with pytest.raises(AutomorphismLimitExceeded):
        list(enumerate_automorphisms(k14, limit=5))


def test_enumerate_pinned(k13):
    pinned = list(enumerate_automorphisms(k13, pinned=1))
    assert all(s[1] == 1 for s in pinned)
    assert len(pinned) == 2


def test_motion_validation():
    with pytest.raises(ValueError):
        Motion(1)
    with pytest.raises(ValueError):
        Motion(3)
    assert Motion(2) < Motion(4) < ASYMMETRIC
    assert not ASYMMETRIC < Motion(1000)
    assert ASYMMETRIC.to_json() == "asymmetric"
    assert Motion(4).to_json() == 4


def test_motion_orders_like_its_key():
    # asymmetric sorts above every finite motion, under all four comparisons
    def key(m):
        return float("inf") if m.is_asymmetric else m.moved

    values = [Motion(2), Motion(4), Motion(6), ASYMMETRIC]
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a in values:
            for b in values:
                assert op(a, b) is op(key(a), key(b)), (op.__name__, a, b)


def test_exhaustive_oracle_equivalence_small():
    for t in trees_up_to(8):
        auts = list(enumerate_automorphisms(t))
        assert len(auts) == len(set(auts)) == aut_order(t)
        moved = [sum(1 for i, y in enumerate(s) if i != y) for s in auts]
        nonid = [m for m in moved if m]
        if nonid:
            assert motion(t) == Motion(min(nonid))
        else:
            assert motion(t) == ASYMMETRIC
        assert (motion(t) == ASYMMETRIC) == (aut_order(t) == 1)
        for w in range(t.n):
            rt = root_at(t, w)
            assert aut_order_rooted(rt) == reference_aut_order_rooted(rt) == sum(
                1 for s in enumerate_automorphisms(t, pinned=w)
            )


def test_rooted_values_build_no_rooting(table_builds):
    # a(T,w) and |Aut(T,w)| at one root read the kept center table, never the rooting's own tables; the
    # all-roots pass gives the same values
    rng = random.Random(2000)
    t = random_tree(rng, 2000)
    an = TreeAnalysis.at_center(t)
    vals = aut_by_class(an)
    a_ref = asym_at_every_root(t)
    aut_ref = [vals[c] * b for c, b in zip(an.ids, _toward_center(an, vals, _aut_product))]
    # the kept center table's one rooting
    assert [w for _, (_, w) in table_builds] == [TreeAnalysis.at_center(t).rt.root]
    table_builds.clear()
    assert [asym_rooted(root_at(t, w)) for w in range(t.n)] == list(a_ref)
    assert [aut_order_rooted(root_at(t, w)) for w in range(t.n)] == aut_ref
    assert table_builds == []
    assert root_at(t, 7).bfs_order[0] == 7 and [w for _, (_, w) in table_builds] == [7]


@given(random_trees(max_n=9))
@settings(max_examples=60, deadline=None)
def test_motion_matches_brute(t):
    assert motion(t) == brute_motion(t)


@given(trees_with_permutation(max_n=10))
@settings(max_examples=60)
def test_motion_relabel_invariant(tp):
    t, perm = tp
    assert motion(t) == motion(relabel(t, perm))


@given(random_trees(max_n=12))
@settings(max_examples=60)
def test_motion_even_and_half_swap_bound(t):
    m = motion(t)
    if not m.is_asymmetric:
        assert m.moved >= 2 and m.moved % 2 == 0
        assert m.moved <= t.n
    c = center(t)
    if isinstance(c, EdgeCenter):
        from treesym.canon import TreeAnalysis, subtree_codes

        # rooted at v, u's subtree is exactly the u-half, and the other way round
        half_u = subtree_codes(root_at(t, c.v))[c.u]
        half_v = subtree_codes(root_at(t, c.u))[c.v]
        iso = TreeAnalysis.at_center(t).iso_halves
        assert iso == (half_u == half_v)
        if iso:
            assert motion(t) <= Motion(t.n)
