"""Acceptance suite: one test per criterion, each printing a PASS line.

The small trees come from conftest's shared ``trees_up_to``, and oracle
censuses are cached at module level so later criteria reuse the heavy work
done by the oracle-equivalence run.
"""

import random
import time

import pytest

from treesym import (
    Tree,
    asym_rooted,
    asym_unrooted,
    aut_order,
    aut_order_rooted,
    brute_asym,
    brute_motion,
    group_order_bound_check,
    conjecture_check,
    construct_distinguishing,
    enumerate_automorphisms,
    extend_ray_coloring,
    lobed_extremal,
    motion,
    random_one_ended_truncation,
    root_at,
    unrank_distinguishing,
    verify_distinguishing,
)
from treesym.corpus import random_tree

from .conftest import trees_up_to

_ORACLE_UNPINNED: dict[tuple[int, int], object] = {}

EXPECTED_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def oracle_unpinned(key, t):
    if key not in _ORACLE_UNPINNED:
        _ORACLE_UNPINNED[key] = brute_asym(t)
    return _ORACLE_UNPINNED[key]


def test_criterion_1_smallest_tree_values():
    start = time.perf_counter()
    k1 = Tree.from_edges(1, [])
    k2 = Tree.from_edges(2, [(0, 1)])
    assert asym_unrooted(k1) == 2
    assert asym_unrooted(k2) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: a(K1)=2, a(K2)=1 exact ({elapsed:.3f}s < 1s)")


def test_criterion_2_extremal_family():
    start = time.perf_counter()
    for m, n_expected in ((4, 9), (6, 25)):
        t = lobed_extremal(m)
        assert t.n == n_expected
        assert asym_unrooted(t) == 2
        assert motion(t).moved == m
        assert t.delta == 1 << (m // 2)
    t4 = lobed_extremal(4)
    rep = brute_asym(t4)
    assert rep.total_colorings == 512
    assert rep.aut_order == 24
    assert rep.orbit_count == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        "PASS criterion 2: lobed extremal m=4 (n=9) and m=6 (n=25) give a=2, "
        f"motion=m, delta=2^(m/2); m=4 confirmed by 512x24 brute force ({elapsed:.2f}s < 5s)"
    )


def test_criterion_3_oracle_equivalence_n10():
    start = time.perf_counter()
    trees = trees_up_to(10)
    per_n = [sum(1 for t in trees if t.n == n) for n in range(1, 11)]
    assert per_n == EXPECTED_COUNTS
    mismatches = 0
    for idx, t in enumerate(trees):
        rep = oracle_unpinned((t.n, idx), t)
        if rep.orbit_count != asym_unrooted(t):
            mismatches += 1
        if rep.aut_order != aut_order(t):
            mismatches += 1
        if brute_motion(t) != motion(t):
            mismatches += 1
        for w in range(t.n):
            pinned = brute_asym(t, pinned=w)
            rt = root_at(t, w)
            if pinned.orbit_count != asym_rooted(rt):
                mismatches += 1
            if pinned.aut_order != aut_order_rooted(rt):
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: oracle equivalence on all {len(trees)} trees n<=10, "
        f"every root, 0 mismatches ({elapsed:.1f}s < 60s)"
    )


def test_criterion_4_distinguishability_bound():
    start = time.perf_counter()
    trees = trees_up_to(10)
    rng = random.Random(20260809)
    randoms = [random_tree(rng, rng.randint(1, 40)) for _ in range(10_000)]
    violations = 0
    checked = 0
    for t in trees + randoms:
        m = motion(t)
        if m.is_asymmetric:
            continue
        if t.delta > 1 << (m.moved // 2):
            continue
        checked += 1
        if asym_unrooted(t) <= 0:
            violations += 1
            continue
        coloring = construct_distinguishing(t)
        if coloring is None or not verify_distinguishing(t, coloring):
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 300.0
    print(
        f"PASS criterion 4: degree bound implies 2-distinguishable with verified "
        f"construction on {checked} hypothesis-satisfying trees out of "
        f"{len(trees) + 10_000} (corpus + 10k random n<=40), 0 violations ({elapsed:.1f}s < 5min)"
    )


def test_criterion_5_rooted_lower_bound():
    start = time.perf_counter()
    trees = trees_up_to(10) + [lobed_extremal(m) for m in (2, 4, 6)]
    rng = random.Random(55)
    trees += [random_tree(rng, rng.randint(2, 24)) for _ in range(500)]
    violations = 0
    checked = 0
    for t in trees:
        m = motion(t)
        if m.is_asymmetric:
            continue
        threshold = 1 << (m.moved // 2)
        if t.delta > threshold:
            continue
        for w in range(t.n):
            if t.degree(w) < threshold:
                checked += 1
                if asym_rooted(root_at(t, w)) < 2 * threshold:
                    violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    print(
        f"PASS criterion 5: rooted bound a(T,w) >= 2*2^(m/2) on {checked} "
        f"hypothesis-satisfying rooted trees, 0 violations ({elapsed:.1f}s)"
    )


def test_criterion_6_group_order_bound_and_regular_action():
    start = time.perf_counter()
    trees = trees_up_to(10)
    for idx, t in enumerate(trees):
        rep = oracle_unpinned((t.n, idx), t)
        # regular action re-checked explicitly (also asserted in the report type)
        assert rep.distinguishing_count == rep.orbit_count * rep.aut_order
        if rep.orbit_count > 0:
            chk = group_order_bound_check(t)
            assert chk.holds
            if rep.aut_order == 1:
                assert chk.product == chk.bound
    elapsed = time.perf_counter() - start
    print(
        "PASS criterion 6: |Aut|*a <= 2^n and regular action on every oracle run; "
        f"asymmetric trees achieve equality ({elapsed:.1f}s)"
    )


def test_criterion_7_conjecture_finite_part():
    start = time.perf_counter()
    counterexamples = []
    for t in trees_up_to(10):
        rep = conjecture_check(t)
        if not rep.consistent:
            counterexamples.append((t, rep))
    elapsed = time.perf_counter() - start
    assert not counterexamples, f"conjecture counterexamples found: {counterexamples}"
    print(
        "PASS criterion 7: local twin condition matches 2-distinguishability on all "
        f"201 trees n<=10, no counterexample ({elapsed:.1f}s)"
    )


def test_criterion_8_unranking_bijection():
    start = time.perf_counter()
    trees = trees_up_to(9)
    for t in trees:
        for w in range(t.n):
            rt = root_at(t, w)
            a = asym_rooted(rt)
            rep = brute_asym(t, pinned=w)
            assert rep.orbit_count == a
            if a == 0:
                continue
            auts = list(enumerate_automorphisms(t, pinned=w))
            mins = set()
            for k in range(a):
                coloring = unrank_distinguishing(rt, k)
                assert verify_distinguishing(t, coloring, pinned=w)
                mins.add(
                    min(
                        sum(1 << s[v] for v in range(t.n) if coloring.mask >> v & 1)
                        for s in auts
                    )
                )
            # pairwise inequivalent and onto: the orbit minima are exactly the oracle's
            assert len(mins) == a
            assert mins == set(rep.orbit_reps)
    elapsed = time.perf_counter() - start
    print(
        f"PASS criterion 8: unranking is a bijection onto oracle orbits for all "
        f"{len(trees)} trees n<=9 at every root ({elapsed:.1f}s)"
    )


@pytest.mark.parametrize("seed, count", [(424242, 100), (7, 200)])
def test_criterion_9_ray_extension(seed, count):
    start = time.perf_counter()
    rng = random.Random(seed)
    failures = 0
    for _ in range(count):
        tr, colors = random_one_ended_truncation(rng, max_ray=20, max_lobe=6)
        ext = extend_ray_coloring(tr, colors)
        if not verify_distinguishing(tr.tree, ext, pinned=tr.ray[-1]):
            failures += 1
        if any(ext.is_black(v) != b for v, b in zip(tr.ray, colors)):
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    print(
        "PASS criterion 9: ray-extension coloring verified with pinned endpoint on "
        f"{count} truncations of seed {seed}, 0 failures ({elapsed:.1f}s)"
    )


def test_criterion_10_infinite_results_out_of_scope():
    # The infinite-cardinality statements (a(T) = 2^|T|) have no finite analogue:
    # the extremal family keeps a = 2 while motion and order grow, so they are
    # covered only through the finite property suites above.
    for m in (4, 6, 8):
        t = lobed_extremal(m)
        assert asym_unrooted(t) == 2 < (1 << t.n)
    print(
        "PASS criterion 10: infinite-cardinality conclusions not reproduced at desk "
        "scale (a stays 2 on the extremal family); covered via the finite suites only"
    )
