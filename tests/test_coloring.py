import hashlib
import inspect
import random
import re
import sys
import time
from math import comb

import pytest
from hypothesis import given, settings

from treesym import (
    Coloring,
    LobeAssignmentError,
    Tree,
    asym_rooted,
    asym_unrooted,
    aut_order,
    brute_asym,
    combinadic_unrank,
    construct_distinguishing,
    enumerate_automorphisms,
    extend_ray_coloring,
    kary_tree,
    one_ended_truncation,
    random_one_ended_truncation,
    random_tree,
    relabel,
    root_at,
    spider,
    to_dot,
    treelike_distinguish,
    unrank_distinguishing,
    unrank_unrooted,
    verify_distinguishing,
)
from treesym import coloring as coloring_module
from treesym.asym import a_by_class, asym_of
from treesym.canon import TreeAnalysis, colored_subtree_codes, colored_unrooted_code, subtree_codes
from treesym.coloring import _colored_key, _to_coloring, _unrank_into, distinguishes, unrank_of

from .conftest import (
    Raised,
    outcome,
    path,
    random_trees,
    recorded,
    relabeled,
    relabeled_families,
    run_python,
    star,
    traced,
    trees_up_to,
)
from .reference import (
    reference_colored_ids,
    reference_colored_key,
    reference_colored_subtree_codes,
    reference_combinadic_unrank,
    reference_extend_ray_coloring,
    reference_lobes,
    reference_to_dot,
    reference_unrank_into,
    reference_verify_pinned,
)
from .test_center_rule import assert_matches_reference as assert_center_rule_matches_reference
from .test_treelike import gadget_graph


def orbit_min(t, mask, auts):
    return min(sum(1 << s[v] for v in range(t.n) if mask >> v & 1) for s in auts)


def test_combinadic_small():
    assert combinadic_unrank(0, 4, 2) == (0, 1)
    assert combinadic_unrank(5, 4, 2) == (2, 3)
    assert [combinadic_unrank(r, 4, 2) for r in range(6)] == [
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
    ]
    with pytest.raises(ValueError):
        combinadic_unrank(6, 4, 2)


def test_combinadic_huge_universe():
    universe = 1 << 70
    picked = combinadic_unrank(12345678901234567890, universe, 3)
    assert len(picked) == 3 and len(set(picked)) == 3
    assert all(0 <= x < universe for x in picked)


def test_combinadic_k2_every_rank_matches_reference():
    for universe in range(61):
        for rank in range(comb(universe, 2)):
            assert combinadic_unrank(rank, universe, 2) == reference_combinadic_unrank(rank, universe, 2)


def test_combinadic_seeded_ranks_match_reference():
    # k = 1 also runs up to 2^4000: it takes the i-wide window like k >= 3, which gives (rank,) in one step
    rng = random.Random(11)
    for k, bits in ((1, 3000), (2, 3000), (3, 3000), (1, 4000)):
        universes = [k, k + 1, 60, 1 << 64, 1 << bits]
        universes += [rng.randint(k, 1 << rng.randint(2, bits)) for _ in range(10)]
        for universe in universes:
            total = comb(universe, k)
            for rank in {0, total - 1, rng.randrange(total)}:
                assert combinadic_unrank(rank, universe, k) == reference_combinadic_unrank(rank, universe, k)
            for bad in (total, total + 1, -1):
                with pytest.raises(ValueError):
                    combinadic_unrank(bad, universe, k)


def test_first_root_returns_at_once(monkeypatch):
    # the first root of x is x itself, with no halving of x's bits
    calls = recorded(monkeypatch, (coloring_module, "_iroot"))
    rng = random.Random(35)
    seeded = [rng.getrandbits(rng.randint(1, 4000)) for _ in range(200)]
    for x in [0, 1, 2, 3, 1 << 64, (1 << 4000) - 1, 1 << 4000] + seeded:
        calls.clear()
        assert coloring_module._iroot(x, 1) == x
        assert [k for _, (_, k) in calls] == [1]


def test_combinadic_k3_to_12_matches_reference():
    # each element is searched only among the i integers from floor((i! rank)^(1/i));
    # the reference binary-searches the whole range, about log2(universe) comb calls per
    # element, so most cases take small universes and a seeded few reach 2^700
    rng = random.Random(29)
    cases = []
    for j in range(20_000):
        k = rng.randint(3, 12)
        universe = k + rng.randrange(1 << (rng.randint(25, 700) if j % 400 == 0 else rng.randint(1, 20)))
        cases.append((rng.randrange(comb(universe, k)), universe, k))
    for k in range(3, 13):
        for universe in (k, k + 1, (1 << 700) - 1):
            cases += [(0, universe, k), (comb(universe, k) - 1, universe, k)]
    assert max(u for _, u, _ in cases).bit_length() == 700
    for rank, universe, k in cases:
        assert combinadic_unrank(rank, universe, k) == reference_combinadic_unrank(rank, universe, k), (rank, universe, k)


def test_unrank_path_comb_calls_linear(monkeypatch):
    # the closed forms make two comb calls per vertex on a path (one digit
    # capacity, one range check); binary search made hundreds
    t = path(2000)
    a = asym_unrooted(t)
    calls = recorded(monkeypatch, (coloring_module, "comb"))
    c = unrank_unrooted(t, a - 1)
    assert len(calls) <= 4 * t.n
    monkeypatch.undo()
    assert verify_distinguishing(t, c)


def test_unrank_k1(k1):
    rt = root_at(k1, 0)
    assert unrank_distinguishing(rt, 0).bits() == "1"
    assert unrank_distinguishing(rt, 1).bits() == "0"
    with pytest.raises(IndexError):
        unrank_distinguishing(rt, 2)


def test_unrank_p3_center(p3):
    rt = root_at(p3, 0)
    cs = [unrank_distinguishing(rt, k) for k in range(2)]
    # both classes: leaves colored unequally; the two classes differ at the center
    for c in cs:
        assert c.is_black(1) != c.is_black(2)
    assert cs[0].is_black(0) != cs[1].is_black(0)


def test_unrank_pairwise_inequivalent_small():
    for t in trees_up_to(7):
        for w in range(t.n):
            rt = root_at(t, w)
            a = asym_rooted(rt)
            seen = set()
            for k in range(a):
                c = unrank_distinguishing(rt, k)
                assert verify_distinguishing(t, c, pinned=w)
                # colored code rooted at w: the invariant of the pinned group
                seen.add(colored_subtree_codes(rt, c)[w])
            assert len(seen) == a


def test_unrank_twins_order_classes_alike():
    # twins 1 and 5 each have a leaf and a hanging 2-path, in opposite id order
    t = Tree.from_edges(9, [(0, 1), (0, 5), (1, 2), (1, 3), (3, 4), (5, 6), (6, 7), (5, 8)])
    rt = root_at(t, 0)
    assert asym_rooted(rt) == 240
    colorings = [unrank_distinguishing(rt, k) for k in range(240)]
    assert all(verify_distinguishing(t, c, pinned=0) for c in colorings)
    assert len({colored_subtree_codes(rt, c)[0] for c in colorings}) == 240


def test_unrank_bijective_on_relabeled_trees():
    # seeded relabelings put twins' child classes in different vertex-id orders
    rng = random.Random(4)
    for base in trees_up_to(9):
        t = relabeled(base, rng)
        for w in range(t.n):
            rt = root_at(t, w)
            a = asym_rooted(rt)
            colorings = [unrank_distinguishing(rt, k) for k in range(a)]
            assert all(verify_distinguishing(t, c, pinned=w) for c in colorings)
            assert len({colored_subtree_codes(rt, c)[w] for c in colorings}) == a
        a = asym_unrooted(t)
        colorings = [unrank_unrooted(t, k) for k in range(a)]
        assert all(verify_distinguishing(t, c) for c in colorings)
        assert len({colored_unrooted_code(t, c) for c in colorings}) == a


def test_unrank_meets_every_orbit_small():
    for t in trees_up_to(7):
        for w in range(t.n):
            rt = root_at(t, w)
            a = asym_rooted(rt)
            rep = brute_asym(t, pinned=w)
            assert rep.orbit_count == a
            auts = list(enumerate_automorphisms(t, pinned=w))
            mins = {orbit_min(t, unrank_distinguishing(rt, k).mask, auts) for k in range(a)}
            assert mins == set(rep.orbit_reps)


def test_unrank_unrooted_meets_every_orbit_small():
    for t in trees_up_to(7):
        a_t = brute_asym(t)
        auts = list(enumerate_automorphisms(t))
        mins = {orbit_min(t, unrank_unrooted(t, k).mask, auts) for k in range(a_t.orbit_count)}
        assert mins == set(a_t.orbit_reps)


def test_verify_examples(k2, p3_path):
    assert not verify_distinguishing(k2, Coloring.from_bits("11"))
    assert verify_distinguishing(k2, Coloring.from_bits("10"))
    # path 0-1-2: center black, leaves both white -> the leaf swap survives
    assert not verify_distinguishing(p3_path, Coloring.from_bits("010"))
    assert verify_distinguishing(p3_path, Coloring.from_bits("110"))


def test_verify_pinned(p3):
    # pinned at a leaf, the tree has no symmetry left
    assert verify_distinguishing(p3, Coloring.from_bits("000"), pinned=1)
    assert not verify_distinguishing(p3, Coloring.from_bits("000"), pinned=0)


def test_verify_length_mismatch(p3):
    with pytest.raises(ValueError):
        verify_distinguishing(p3, Coloring.from_bits("01"))


def test_verify_pinned_matches_rooting_at_the_pin_small():
    rng = random.Random(36)
    verdicts = set()
    for t in trees_up_to(10):
        masks = range(1 << t.n) if t.n <= 7 else None
        for w in range(t.n):
            an = TreeAnalysis.of(root_at(t, w))  # the reference's rooting, built once per pin
            for mask in masks or [rng.getrandbits(t.n) for _ in range(40)]:
                c = Coloring(t.n, mask)
                expected = distinguishes(an, c)
                assert verify_distinguishing(t, c, pinned=w) == expected, (t.edges(), w, c.bits())
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_verify_pinned_matches_rooting_at_the_pin_on_seeded_corpora():
    rng = random.Random(37)
    trees = [path(1), path(2), path(3), *relabeled_families(38, (4, 9, 40, 150, 600, 2000))]
    assert {len(TreeAnalysis.at_center(t).roots) for t in trees} == {1, 2}  # both center kinds
    verdicts = []
    for t in trees:
        for w in {0, t.n - 1, rng.randrange(t.n), rng.randrange(t.n)}:
            an = TreeAnalysis.of(root_at(t, w))
            for c in colorings_to_check(an, a_by_class(an), rng):
                expected = reference_verify_pinned(t, c, w)
                assert verify_distinguishing(t, c, pinned=w) == expected, (t.n, w)
                verdicts.append(expected)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def test_verify_pinned_errors_match_rooting_at_the_pin(p3):
    for t in (path(1), p3, relabeled_families(39, (40,))[2]):
        c = Coloring(t.n, 0)
        for w in (-1, -t.n, t.n, t.n + 5):
            want = outcome(reference_verify_pinned, t, c, w)
            assert outcome(verify_distinguishing, t, c, pinned=w) == want == Raised(
                ValueError, f"root {w} out of range 0..{t.n - 1}")
            # the length check comes first, even for a pin out of range
            with pytest.raises(ValueError, match="^coloring length does not match tree$"):
                verify_distinguishing(t, Coloring(t.n + 1, 0), pinned=w)


@given(random_trees(max_n=10))
@settings(max_examples=60)
def test_complement_closure(t):
    rng = random.Random(t.n * 7919 + t.delta)
    for _ in range(20):
        c = Coloring(t.n, rng.randrange(1 << t.n))
        assert verify_distinguishing(t, c) == verify_distinguishing(t, c.complement())


def test_verify_matches_oracle_randomized():
    # automorphism-by-automorphism ground truth, 1000 random colorings per tree
    rng = random.Random(2024)
    for t in trees_up_to(10):
        nonid = [
            [1 << y for y in s]
            for s in enumerate_automorphisms(t)
            if any(i != y for i, y in enumerate(s))
        ]
        nonid.sort(key=lambda tbl: sum(1 for i, b in enumerate(tbl) if b != 1 << i))

        def fixed_by_some(mask):
            for tbl in nonid:
                image = 0
                rest = mask
                while rest:
                    low = rest & -rest
                    image |= tbl[low.bit_length() - 1]
                    rest ^= low
                if image == mask:
                    return True
            return False

        for _ in range(1000):
            mask = rng.randrange(1 << t.n)
            c = Coloring(t.n, mask)
            assert verify_distinguishing(t, c) == (not fixed_by_some(mask))


def test_construct_examples(p4, k13, asym7):
    assert construct_distinguishing(k13) is None
    c = construct_distinguishing(p4)
    assert c is not None and verify_distinguishing(p4, c)
    c7 = construct_distinguishing(asym7)
    assert c7 is not None and verify_distinguishing(asym7, c7)


def test_construct_presence_matches_a():
    for t in trees_up_to(8):
        c = construct_distinguishing(t)
        assert (c is not None) == (asym_unrooted(t) > 0)
        if c is not None:
            assert verify_distinguishing(t, c)


def test_construct_raises_under_optimize():
    # python -O strips assert statements; the verification guard must survive it
    script = (
        "import treesym.coloring as m\n"
        "m.verify_distinguishing = m.distinguishes = lambda *args, **kwargs: False\n"
        "try:\n"
        "    m.construct_distinguishing(m.Tree.from_edges(4, [(0, 1), (1, 2), (2, 3)]))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    r = run_python("-O", "-c", script, timeout=120)
    assert r.code == 0, r.err


def test_truncation_validation(p4):
    with pytest.raises(ValueError):
        one_ended_truncation(p4, [1, 2])  # origin degree 2
    with pytest.raises(ValueError):
        one_ended_truncation(p4, [0, 2])  # not adjacent
    for ray, message in (
        ([], "ray must be a nonempty sequence of distinct vertices"),
        ([0, 1, 0], "ray must be a nonempty sequence of distinct vertices"),
        ([0, 4], "ray vertex 4 out of range"),
        ([-1, 0], "ray vertex -1 out of range"),
        ([10**300], f"ray vertex 1{'0' * 39}... (cut, 301 characters) out of range"),  # 325 characters in full
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            one_ended_truncation(p4, ray)
        assert len(message) <= 120
    tr = one_ended_truncation(p4, [0, 1, 2, 3])
    assert tr.lobes == ((0,), (1,), (2,), (3,))
    with pytest.raises(ValueError, match="^ray coloring length must match the ray$"):
        extend_ray_coloring(tr, (True, False, True))


def test_extend_ray_only():
    t = path(6)
    tr = one_ended_truncation(t, list(range(6)))
    colors = (True, False, True, True, False, False)
    ext = extend_ray_coloring(tr, colors)
    assert ext.bits() == "101100"
    assert verify_distinguishing(t, ext, pinned=5)


def test_extend_caterpillar():
    # ray 0..5 with one pendant leaf per ray vertex v_1..v_5
    edges = [(i, i + 1) for i in range(5)]
    nxt = 6
    for i in range(1, 6):
        edges.append((i, nxt))
        nxt += 1
    t = Tree.from_edges(nxt, edges)
    tr = one_ended_truncation(t, list(range(6)))
    for trial in range(8):
        colors = tuple(bool(trial >> i & 1) for i in range(6))
        ext = extend_ray_coloring(tr, colors)
        assert verify_distinguishing(t, ext, pinned=5)
        for v, b in zip(tr.ray, colors):
            assert ext.is_black(v) == b


def test_extend_twin_lobes_get_inequivalent_colorings():
    # two isomorphic hanging 2-paths at ray vertex 2
    edges = [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (2, 6), (6, 7)]
    t = Tree.from_edges(8, edges)
    tr = one_ended_truncation(t, [0, 1, 2, 3])
    ext = extend_ray_coloring(tr, (False, False, False, False))
    assert verify_distinguishing(t, ext, pinned=3)
    rt = root_at(t, 2)
    colored = colored_subtree_codes(rt, ext)
    assert colored[4] != colored[6]


def test_extend_failure_certificate():
    # three leaf lobes at one ray vertex: needs 3 inequivalent leaf colorings, only 2 exist
    edges = [(0, 1), (1, 2), (1, 3), (1, 4)]
    t = Tree.from_edges(5, edges)
    tr = one_ended_truncation(t, [0, 1])
    with pytest.raises(LobeAssignmentError) as exc:
        extend_ray_coloring(tr, (False, False))
    err = exc.value
    assert err.needed > err.available
    assert err.ray_vertex == 1


def test_extend_failure_read_from_a_suffix_class_past_s_d_minus_1():
    # v_1 = 19 carries a copy of S_2 (the branch at 3; a = 0, three twin leaves) and three cherries (a = 2), with
    # the lobe ids below the ray ids. Both classes fail at v_1, and the one reported is the one whose last vertex
    # from v_1 comes later: the class at 3, whose last vertices lie in S_2. With the suffix lookup stopped after
    # S_{D-1}, S_2 is no class, and the cherries are reported instead (9, 3, 2)
    edges = [(18, 19), (19, 20), (20, 21), (21, 22), (22, 0), (22, 1), (22, 2), (19, 3), (3, 4), (4, 5), (5, 6),
             (5, 7), (5, 8), (19, 9), (9, 10), (9, 11), (19, 12), (12, 13), (12, 14), (19, 15), (15, 16), (15, 17)]
    tr = one_ended_truncation(Tree.from_edges(23, edges), [18, 19, 20, 21, 22])
    want = outcome(reference_extend_ray_coloring, tr, (1, 0, 1, 0, 1), catch=LobeAssignmentError)
    assert outcome(extend_ray_coloring, tr, (1, 0, 1, 0, 1), catch=LobeAssignmentError) == want
    assert want.attrs == (("ray_vertex", 19), ("branch_rep", 3), ("needed", 1), ("available", 0))


# Twin-class digit order depends on the rooting: class ids are numbered by
# first appearance bottom-up. These two tests pin the ray extension's output,
# so rooting once at v_D instead of once per ray vertex cannot pass unnoticed.
RAY27_EDGES = (
    "0-1 1-2 2-3 1-4 4-5 4-6 6-7 5-8 6-9 1-10 10-11 10-12 12-13 11-14 12-15 "
    "1-16 16-17 16-18 18-19 17-20 18-21 3-22 22-23 22-24 24-25 25-26"
)


def test_extend_output_pinned_on_twin_lobes():
    t = Tree.from_edges(27, [tuple(map(int, e.split("-"))) for e in RAY27_EDGES.split()])
    ext = extend_ray_coloring(one_ended_truncation(t, (0, 1, 2, 3)), (True, False, False, False))
    # a single rooting at v_D gives ...011011... here: vertex 17 black, 18 white
    assert ext.bits() == "100011111001111010111000000"


def twin_lobe_truncation(rng: random.Random):
    """A ray whose lobes each hold 1-3 twin copies of one random rooted tree (<= 6 vertices)."""
    ray_len = rng.randint(4, 12)
    edges = [(i, i + 1) for i in range(ray_len - 1)]
    nxt = ray_len
    for i in range(1, ray_len):
        if rng.random() < 0.25:
            continue
        size = rng.randint(1, 6)
        parents = [rng.randrange(j) for j in range(1, size)]
        for _ in range(rng.randint(1, 3)):
            edges.append((i, nxt))
            edges.extend((nxt + p, nxt + j) for j, p in enumerate(parents, 1))
            nxt += size
    colors = tuple(rng.random() < 0.5 for _ in range(ray_len))
    return one_ended_truncation(Tree.from_edges(nxt, edges), range(ray_len)), colors


def test_extend_outputs_digest_on_twin_lobes():
    lines = []
    for seed in range(200):
        got = outcome(extend_ray_coloring, *twin_lobe_truncation(random.Random(seed)), catch=LobeAssignmentError)
        lines.append(f"{got.type.__name__}: {got.message}" if isinstance(got, Raised) else got.bits())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "b36596f0d37c9f086cd8634a9f62fd80473310dcb59d59f374d72f3cd03db3aa"


def reversed_classes(runs, kids):
    """An ``order`` callback that hands the twin classes (and their children) over last first."""
    groups, pos = [], 0
    for c, mu in runs:
        groups.append(((c, mu), kids[pos : pos + mu]))
        pos += mu
    groups.reverse()
    return [g[0] for g in groups], [m for g in groups for m in g[1]]


def colorings_to_check(an, a, rng):
    """Unranked colorings, each with one bit flipped, their complements and random masks."""
    n = an.rt.tree.n
    out = [Coloring(n, rng.getrandbits(n)) for _ in range(3)]
    total = asym_of(an, a)
    for index in {0, min(1, total - 1), rng.randrange(total)} if total else ():
        c = unrank_of(an, a, index)
        flipped = Coloring(n, c.mask ^ (1 << rng.randrange(n)))
        out += [c, c.complement(), flipped]
    return out


def analyses_at_every_root(t):
    yield TreeAnalysis.at_center(t)
    for w in range(t.n):
        yield TreeAnalysis.of(root_at(t, w))


def test_distinguishes_matches_reference_at_every_root_small():
    rng = random.Random(31)
    verdicts = set()
    for t in trees_up_to(10):
        for an in analyses_at_every_root(t):
            a = a_by_class(an)
            for c in colorings_to_check(an, a, rng):
                expected = reference_colored_key(an, c, {}) is not None
                assert distinguishes(an, c) == expected, (t.adj, an.roots, c.bits())
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_distinguishes_matches_reference_on_seeded_corpora():
    rng = random.Random(32)
    verdicts = []
    for t in relabeled_families(33, (4, 9, 40, 150, 600, 2000)):
        for an in (TreeAnalysis.at_center(t), TreeAnalysis.of(root_at(t, rng.randrange(t.n)))):
            a = a_by_class(an)
            for c in colorings_to_check(an, a, rng):
                expected = reference_colored_key(an, c, {}) is not None
                assert distinguishes(an, c) == expected, (t.n, an.roots)
                verdicts.append(expected)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def test_colored_keys_from_one_table_match_reference():
    # the treelike contract: keys drawn from one table across many components
    # are equal iff the reference's keys are, and None exactly where its are
    rng = random.Random(34)
    table, ref_table = {}, {}
    pairs = {}
    for t in trees_up_to(7) + relabeled_families(35, (8, 12)):
        an = TreeAnalysis.at_center(t)
        masks = range(1 << t.n) if t.n <= 7 else [rng.getrandbits(t.n) for _ in range(300)]
        for mask in masks:
            c = Coloring(t.n, mask)
            key, ref = _colored_key(an, c.bits(), table), reference_colored_key(an, c, ref_table)
            assert (key is None) == (ref is None)
            if key is not None:
                assert pairs.setdefault(key, ref) == ref
    assert len(set(pairs.values())) == len(pairs) > 1000


def unranking_cases(an, a, rng, starts):
    """(start, index) pairs: at a root 0 to 3, 1, the largest multiplicity, random indices and the first index out
    of range; at any other start whose branch has a coloring, index 0. A zero digit writes only twin positions."""
    mu_max = max((mu for sig in an.sigs for _, mu in sig), default=1)
    for x in starts:
        total = a[an.ids[x]]
        if x in an.roots and total:
            for index in {0, 1, 2, 3, mu_max, rng.randrange(total), rng.randrange(total), total}:
                yield x, index
        elif total:
            yield x, 0


def assert_unranking_matches_reference(an, a, rng, starts):
    n = an.rt.tree.n
    for r, index in unranking_cases(an, a, rng, starts):
        for order in (None, reversed_classes):
            got, want = [None] * n, [None] * n
            try:
                reference_unrank_into(an, a, r, index, want, order)
            except AssertionError:
                with pytest.raises(AssertionError, match="index not fully consumed"):
                    _unrank_into(an, a, r, index, got, order)
                continue
            _unrank_into(an, a, r, index, got, order)
            assert got == want, (an.rt.tree.adj, r, index, order)


def test_unrank_into_matches_reference_small():
    rng = random.Random(36)
    for t in trees_up_to(9):
        for an in analyses_at_every_root(t):
            assert_unranking_matches_reference(an, a_by_class(an), rng, an.roots)


def test_zero_index_matches_previous_kernel_small():
    # index 0 from every start below the roots
    rng = random.Random(39)
    for t in trees_up_to(9):
        for an in analyses_at_every_root(t):
            assert_unranking_matches_reference(an, a_by_class(an), rng, set(range(t.n)) - set(an.roots))


def test_unrank_into_matches_reference_on_seeded_corpora():
    rng = random.Random(37)
    for t in relabeled_families(38, (4, 9, 40, 150, 600, 2000)):
        for an in (TreeAnalysis.at_center(t), TreeAnalysis.of(root_at(t, rng.randrange(t.n)))):
            assert_unranking_matches_reference(an, a_by_class(an), rng, an.roots)


def test_zero_index_matches_previous_kernel_on_seeded_corpora():
    rng = random.Random(39)
    for t in relabeled_families(40, (4, 9, 40, 150, 600, 2000)):
        for an in (TreeAnalysis.at_center(t), TreeAnalysis.of(root_at(t, rng.randrange(t.n)))):
            starts = {rng.randrange(t.n) for _ in range(5)} - set(an.roots)
            assert_unranking_matches_reference(an, a_by_class(an), rng, starts)


def test_unrank_of_matches_stack_kernel_at_every_root_small():
    rng = random.Random(41)
    cases = 0
    for t in trees_up_to(10):
        for an in analyses_at_every_root(t):
            cases += assert_center_rule_matches_reference(an, rng)
    assert cases > 7000


def edge_centered_pair(rng: random.Random, m: int, iso: bool) -> Tree:
    """Two rooted halves of equal height joined at their roots, so the joining edge is the center.

    With ``iso`` the second half is a copy of the first; without, it is the first with one
    more leaf hung below a vertex above the lowest level, so it keeps the height and is larger.
    """
    half = random_tree(rng, m)
    rt = root_at(half, rng.randrange(m))
    depth = [0] * m
    for v in rt.bfs_order[1:]:
        depth[v] = depth[rt.parent[v]] + 1
    edges = [(v, rt.parent[v]) for v in rt.bfs_order[1:]]
    edges += [(u + m, v + m) for u, v in edges] + [(rt.root, rt.root + m)]
    n = 2 * m
    if not iso:
        edges.append((rng.choice([v for v in range(m) if depth[v] < max(depth)]) + m, n))
        n += 1
    return relabeled(Tree.from_edges(n, edges), rng)


def test_unrank_of_matches_stack_kernel_on_seeded_corpora():
    rng = random.Random(42)
    halves = set()
    for n in (4, 9, 40, 150, 600, 2000):
        family = [relabeled(t, rng) for t in (path(n), kary_tree(n, 2), *(spider(n, k) for k in range(3, 13) if k < n))]
        for t in family + [edge_centered_pair(rng, n // 2, iso) for iso in (True, False)]:
            for an in (TreeAnalysis.at_center(t), TreeAnalysis.of(root_at(t, rng.randrange(t.n)))):
                if len(an.roots) == 2:
                    halves.add(an.iso_halves)
                assert_center_rule_matches_reference(an, rng)
    assert halves == {True, False}


class WriteCountingList(list):
    """A list that counts the items written into it."""

    def __init__(self, items):
        super().__init__(items)
        self.writes = 0

    def __setitem__(self, i, value):
        self.writes += 1
        super().__setitem__(i, value)


def zero_index_writes(t: Tree) -> int:
    """Sub-index writes of the one-pass kernel over the whole tree at index 0, center digits aside."""
    an = TreeAnalysis.at_center(t)
    a = a_by_class(an)
    start = [0] * t.n
    if an.iso_halves:  # index 0's center digit hands the halves 0 and 1
        start[an.roots[1]] = 1
    sub, colors = WriteCountingList(start), [None] * t.n
    coloring_module._unrank_down(an, a, an.rt.bfs_order, sub, colors)
    assert _to_coloring(colors) == unrank_of(an, a, 0)
    return sub.writes


def test_zero_index_writes_only_twin_positions():
    edges, n = [], 1  # a spider with legs of lengths 1..60: asymmetric
    for length in range(1, 61):
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(length)]
        n += length
    spider_1_to_60 = Tree.from_edges(n, edges)
    assert aut_order(spider_1_to_60) == 1
    asym7 = Tree.from_edges(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
    for t in (spider_1_to_60, asym7, path(2000)):  # the even path's halves take their digits before the pass
        assert zero_index_writes(t) == 0, t.n
    assert zero_index_writes(path(2001)) == 1  # the odd path's two arms are one twin pair
    for h in range(2, 12):  # a perfect binary tree: one write per twin pair
        assert zero_index_writes(kary_tree(2**h - 1, 2)) == 2 ** (h - 1) - 1


def test_branch_unranking_allocates_nothing_tree_sized():
    t = path(100_001)
    an = TreeAnalysis.at_center(t)
    a = a_by_class(an)
    x = next(v for v in an.rt.bfs_order if an.rt.subtree_size[v] == 10)
    for index in (0, 1, a[an.ids[x]] - 1):
        got, want = [None] * t.n, [None] * t.n
        _, peak = traced(lambda: _unrank_into(an, a, x, index, got))
        assert peak < 20_000  # a list of n items alone would take 800 kB
        reference_unrank_into(an, a, x, index, want)
        assert got == want


def pinned_colorings(n):
    """Every coloring of n vertices as bits, unpinned and pinned at each vertex ("2")."""
    for mask in range(1 << n):
        bits = Coloring(n, mask).bits()
        yield bits
        for w in range(n):
            yield f"{bits[:w]}2{bits[w + 1:]}"


def test_colored_ids_match_previous_kernel_on_every_pinned_coloring():
    # against the branch walk: the same twin collision, and ids equal iff the walk's are (``pairs`` maps one to the
    # other). Each coloring on its own table, and on one table shared by every tree, rooting and coloring, as
    # treelike_distinguish shares one across components; the walk's ids come from one shared table
    table, ref_table, shared = {}, {}, {}
    for t in trees_up_to(7):
        for an in analyses_at_every_root(t):
            for colors in pinned_colorings(t.n):
                ref_ids, collide = {}, False
                for r in an.roots:
                    branch, at_r = reference_colored_ids(an, colors, r, ref_table)
                    ref_ids.update(branch)
                    collide = collide or at_r
                fresh = {}
                for own, pairs in (({}, fresh), (table, shared)):
                    ids = [-1] * t.n
                    ok = coloring_module._colored_ids(an, colors, an.rt.bfs_order[::-1], ids, own)
                    assert ok is not collide, (t.adj, an.roots, colors)
                    for v, ref in ref_ids.items() if ok else ():
                        assert pairs.setdefault(ids[v], ref) == ref, (t.adj, an.roots, colors)
                assert len(set(fresh.values())) == len(fresh), (t.adj, an.roots, colors)
    assert len(set(shared.values())) == len(shared) > 1000


def assert_matches_reference(cases):
    for tr, colors in cases:
        expected = outcome(reference_extend_ray_coloring, tr, colors, catch=LobeAssignmentError)
        assert outcome(extend_ray_coloring, tr, colors, catch=LobeAssignmentError) == expected, (tr.tree.adj, tr.ray, colors)


def hanging_path_ray(rng: random.Random, ray_len: int):
    """A ray 0..ray_len-1 with a pair of twin hanging paths of order 2 or 3 at about half its vertices."""
    edges = [(i, i + 1) for i in range(ray_len - 1)]
    nxt = ray_len
    for i in range(1, ray_len):
        if rng.random() < 0.45:
            continue
        chain = rng.choice((2, 2, 3))
        for _ in range(2):
            prev = i
            for _ in range(chain):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
    colors = tuple(rng.random() < 0.5 for _ in range(ray_len))
    return one_ended_truncation(Tree.from_edges(nxt, edges), range(ray_len)), colors


def pooled_truncation(rng: random.Random):
    """Shuffled ids, 0-3 families of 1-4 twin copies per ray vertex drawn from three random rooted trees, and a bare tail.

    The shared pool puts equal classes on both sides of v_i, a bare tail makes suffix
    branches equal to lobe branches, and shuffled ids let the prefix, the suffix and the
    lobe branches at v_i come in any adjacency order. So the per-step class order
    decides digits and which LobeAssignmentError fires.
    """
    ray_len = rng.randint(2, 7)
    bare = rng.randint(0, 3)
    edges = [(i, i + 1) for i in range(ray_len - 1)]
    nxt = ray_len
    pool = [[rng.randrange(j) for j in range(1, rng.randint(1, 5))] for _ in range(3)]
    for i in range(1, ray_len - bare):
        for _ in range(rng.randint(0, 3)):
            parents = rng.choice(pool)
            for _ in range(rng.choice((1, 2, 3, 3, 4))):
                edges.append((i, nxt))
                edges.extend((nxt + p, nxt + j) for j, p in enumerate(parents, 1))
                nxt += len(parents) + 1
    perm = list(range(nxt))
    rng.shuffle(perm)
    t = Tree.from_edges(nxt, [(perm[u], perm[v]) for u, v in edges])
    colors = tuple(rng.random() < 0.5 for _ in range(ray_len))
    return one_ended_truncation(t, [perm[i] for i in range(ray_len)]), colors


def test_extend_matches_reference_on_twin_lobes():
    # seeds 78, 121, 1537 and 1736 change if class ids are numbered over the prefix alone
    assert_matches_reference(twin_lobe_truncation(random.Random(seed)) for seed in range(2000))


def test_extend_matches_reference_on_random_truncations():
    rng = random.Random(8)
    assert_matches_reference(random_one_ended_truncation(rng) for _ in range(200))


def test_extend_matches_reference_on_hanging_path_rays():
    rng = random.Random(9)
    assert_matches_reference(hanging_path_ray(rng, rng.randint(4, 301)) for _ in range(50))


def forked_path_truncation():
    """The path 0-1-2 as the ray, with two leaves at 2."""
    return one_ended_truncation(Tree.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)]), (0, 1, 2))


@pytest.mark.parametrize(
    "ray_colors, item",
    [("000", "'0'"), ("010", "'0'"), ((0, 2, 1), "2"), ((None, 0, 0), "None"), ((1, "1", 0), "'1'"), ((1, 1.0, 0), "1.0")],
)
def test_extend_rejects_ray_colors_other_than_bools_and_0_1(ray_colors, item):
    # read by truthiness, "000" and "010" both extended to 11110, as if the ray were all black
    with pytest.raises(ValueError, match=f"^ray color must be a bool or 0/1, got {re.escape(item)}$"):
        extend_ray_coloring(forked_path_truncation(), ray_colors)


def test_extend_reads_bools_and_0_1_ints_alike():
    cases = [(forked_path_truncation(), tuple(bool(k >> i & 1) for i in range(3))) for k in range(8)]
    rng = random.Random(12)
    cases += [random_one_ended_truncation(rng) for _ in range(60)]
    for tr, colors in cases:
        expected = outcome(reference_extend_ray_coloring, tr, colors, catch=LobeAssignmentError)
        assert outcome(extend_ray_coloring, tr, colors, catch=LobeAssignmentError) == expected, (tr.tree.adj, tr.ray, colors)
        assert outcome(extend_ray_coloring, tr, [int(b) for b in colors], catch=LobeAssignmentError) == expected
    assert extend_ray_coloring(forked_path_truncation(), (0, 0, 0)).bits() == "00010"


# Found by a search over 40,000 seeds: the side rule at equal depth decides seeds 756
# (among the first 1000) and 4295, suffix classes decide 659 (also among them), 2122 and
# 6490, and the choice between two failing classes decides 2122.
@pytest.mark.parametrize("seeds", [range(1000), (2122, 4295, 6490)], ids=["first-1000", "found"])
def test_extend_matches_reference_on_pooled_lobes(seeds):
    assert_matches_reference(pooled_truncation(random.Random(seed)) for seed in seeds)


def test_suffix_classes_form_a_tail():
    # rooted at v_0, v_k's subtree is the suffix branch S_k; the ray extension looks S_k up among
    # the classes of the v_D rooting from k = D down and stops at the first miss, which is exact
    # iff S_{k+1} is a class wherever S_k is (S_k has S_{k+1} as a branch). Bytes codes, no ids.
    rng = random.Random(8)
    cases = [twin_lobe_truncation(random.Random(seed))[0] for seed in range(2000)]
    cases += [random_one_ended_truncation(rng)[0] for _ in range(200)]
    cases += [pooled_truncation(random.Random(seed))[0] for seed in range(1000)]
    cases += [hanging_path_ray(rng, rng.randint(4, 120))[0] for _ in range(10)]
    found = missed = 0
    for tr in cases:
        ray = tr.ray
        suffix = subtree_codes(root_at(tr.tree, ray[0]))
        classes = set(subtree_codes(root_at(tr.tree, ray[-1])))
        for k in range(1, len(ray) - 1):
            if suffix[ray[k]] in classes:
                assert suffix[ray[k + 1]] in classes, (tr.tree.adj, ray, k)
                found += 1
            else:
                missed += 1
    assert found > 500 and missed > 5000  # both outcomes occur


def leaf_rays(t: Tree):
    """Every ray of t: the path from a leaf to any vertex."""
    for leaf in (v for v in range(t.n) if t.degree(v) == 1):
        order, parent = [leaf], {leaf: None}
        for u in order:
            for w in t.adj[u]:
                if w not in parent:
                    parent[w] = u
                    order.append(w)
        for end in order:
            ray = [end]
            while parent[ray[-1]] is not None:
                ray.append(parent[ray[-1]])
            yield ray[::-1]


def test_truncation_lobes_match_reference():
    rng = random.Random(72)
    cases = [random_one_ended_truncation(rng)[0] for _ in range(2000)]
    cases += [twin_lobe_truncation(random.Random(seed))[0] for seed in range(2000)]
    cases += [pooled_truncation(random.Random(seed))[0] for seed in range(1000)]
    for tr in cases:
        assert tr.lobes == reference_lobes(tr.tree, tr.ray), (tr.tree.adj, tr.ray)
    rays = 0
    for t in trees_up_to(8) + [relabel(t, rng.sample(range(t.n), t.n)) for t in trees_up_to(8)]:
        for ray in leaf_rays(t):
            assert one_ended_truncation(t, ray).lobes == reference_lobes(t, ray), (t.adj, ray)
            rays += 1
    assert rays > 2500


def test_extend_error_order_at_equal_depth():
    # At v_2 = 10, five twin 2-paths (0-4) and three twin cherries (5-7) both fail.
    # P_1 = 8-11 is a 2-path too and the last vertex of either class from v_2, so
    # the 2-paths rank first. Scoring v_2's own lobe as lying ahead picks the cherries.
    edges = [(11, 8), (8, 10), (10, 9)] + [(10, p) for p in range(5)] + [(p, 12 + p) for p in range(5)]
    edges += [(10, c) for c in (5, 6, 7)] + [(c, 7 + 2 * c + j) for c in (5, 6, 7) for j in (0, 1)]
    tr = one_ended_truncation(Tree.from_edges(23, edges), (11, 8, 10, 9))
    expected = outcome(reference_extend_ray_coloring, tr, (False,) * 4, catch=LobeAssignmentError)
    assert expected.message.endswith("at ray vertex 10: need 6 inequivalent distinguishing colorings for the branch family at 0, only 4 exist")
    assert outcome(extend_ray_coloring, tr, (False,) * 4, catch=LobeAssignmentError) == expected


def test_extend_roots_the_tree_a_constant_number_of_times(monkeypatch):
    # one rooting per ray vertex made 50 root_at and 50 TreeAnalysis.of calls here
    tr, colors = hanging_path_ray(random.Random(3), 50)
    calls = recorded(monkeypatch, (coloring_module, "root_at"), (TreeAnalysis, "of"))
    ext = extend_ray_coloring(tr, colors)
    monkeypatch.undo()
    assert len(calls) <= 3
    assert verify_distinguishing(tr.tree, ext, pinned=tr.ray[-1])


@pytest.mark.parametrize("kernel, frame", [("_colored_ids", "branch_id"), ("distinguishes", "extend_ray_coloring")])
def test_extend_guards_raise_by_statement(monkeypatch, kernel, frame):
    # ray 0-1-2 with a leaf 3 at 1: at v_1 the back branch {0} has the twin {3}, so branch_id compares their
    # colored ids before the final check runs. Each guard is a raise statement, which python -O keeps
    tr = one_ended_truncation(Tree.from_edges(4, [(0, 1), (1, 2), (1, 3)]), [0, 1, 2])
    assert extend_ray_coloring(tr, (False, True, False)).bits() == "0101"
    monkeypatch.setattr(coloring_module, kernel, lambda *args: False)
    with pytest.raises(AssertionError, match="^extended coloring is not distinguishing$") as info:
        extend_ray_coloring(tr, (False, True, False))
    assert info.traceback[-1].name == frame
    assert str(info.traceback[-1].statement).strip().startswith("raise AssertionError(")


def test_colored_ids_read_only_bits_characters(monkeypatch):
    # one color alphabet inside the library: the "0" (white) and "1" (black) of Coloring.bits(), a pin as "2"
    seen = set()
    kernel = coloring_module._colored_ids

    def recording(an, colors, order, ids, table):
        order = list(order)
        seen.update((type(colors[v]), colors[v]) for v in order)
        return kernel(an, colors, order, ids, table)

    monkeypatch.setattr(coloring_module, "_colored_ids", recording)
    rng = random.Random(46)
    for t in relabeled_families(47, (4, 9, 40, 150)):
        construct_distinguishing(t)
        total = asym_unrooted(t)
        for index in {0, total // 3, total - 1} if total else ():
            c = unrank_unrooted(t, index)
            assert verify_distinguishing(t, c)
            verify_distinguishing(t, c, pinned=rng.randrange(t.n))
    for seed in range(100):
        tr, colors = twin_lobe_truncation(random.Random(seed))
        outcome(extend_ray_coloring, tr, colors, catch=LobeAssignmentError)
    for _ in range(20):
        outcome(extend_ray_coloring, *random_one_ended_truncation(rng), catch=LobeAssignmentError)
        outcome(extend_ray_coloring, *hanging_path_ray(rng, rng.randint(4, 40)), catch=LobeAssignmentError)
    for _ in range(40):
        treelike_distinguish(gadget_graph(rng))
    monkeypatch.undo()
    assert seen == {(str, "0"), (str, "1"), (str, "2")}


def test_to_coloring_matches_from_black():
    rng = random.Random(48)
    cases = [["0"], ["1"], ["0"] * 70, ["1"] * 70]
    cases += [[rng.choice("01") for _ in range(rng.randint(1, 300))] for _ in range(300)]
    for colors in cases:
        blacks = [v for v, c in enumerate(colors) if c == "1"]
        assert _to_coloring(colors) == Coloring.from_black(len(colors), blacks)
        assert _to_coloring(colors).bits() == "".join(colors)
    for colors in ([None], ["0", None], ["1", None, "0"]):
        with pytest.raises(AssertionError, match="^coloring left a vertex uncolored$"):
            _to_coloring(colors)


@pytest.mark.parametrize("t, ray", [(path(3), (0,)), (star(4), (1,))], ids=["P3", "spider"])
def test_extend_one_vertex_ray(t, ray):
    # the whole tree is v_0's lobe, which the walk colors like any other
    ext = extend_ray_coloring(one_ended_truncation(t, ray), (True,))
    assert ext.is_black(ray[0])
    assert verify_distinguishing(t, ext, pinned=ray[0])


def test_extend_long_ray_is_iterative_and_linear():
    # D = 10^4, n = 35,559: out of reach for one rooting per ray vertex (x4.3 per doubling)
    tr, colors = hanging_path_ray(random.Random(10), 10**4 + 1)
    ext, peak = traced(lambda: extend_ray_coloring(tr, colors))
    assert all(ext.is_black(v) == black for v, black in zip(tr.ray, colors))
    assert peak < 41 * 10**6  # the tracemalloc peak on Python 3.11 is 20.6 MB


def test_to_dot(k2):
    dot = to_dot(k2, Coloring.from_bits("10"))
    assert "0 [style=filled" in dot
    assert "0 -- 1;" in dot


def test_colored_outputs_match_per_vertex_reference():
    rng = random.Random(21)
    trees = trees_up_to(7) + [random_tree(rng, n) for n in (30, 200, 1000)]
    for t in trees:
        assert to_dot(t) == reference_to_dot(t)
        for _ in range(3):
            c = Coloring(t.n, rng.getrandbits(t.n))
            assert to_dot(t, c) == reference_to_dot(t, c)
            rt = root_at(t, rng.randrange(t.n))
            assert colored_subtree_codes(rt, c) == reference_colored_subtree_codes(rt, c)


def test_colored_outputs_on_huge_trees_are_linear():
    # one mask shift per vertex took to_dot 0.045 / 0.121 / 0.316 s at n = 25k / 50k / 100k;
    # the codes are checked on a star, since a path's nested codes are quadratic in total size
    rng = random.Random(22)
    p, s = path(10**5), star(10**5)
    cp, cs = Coloring(p.n, rng.getrandbits(p.n)), Coloring(s.n, rng.getrandbits(s.n))
    rt = root_at(s, 0)
    start = time.perf_counter()
    dot = to_dot(p, cp)
    codes = colored_subtree_codes(rt, cs)
    elapsed = time.perf_counter() - start
    assert dot.count("style=filled") == cp.bits().count("1")
    assert codes[0].count(b"1") == cs.bits().count("1")
    assert elapsed < 5.0


def spider_legs(t: Tree) -> list[list[int]]:
    """The legs of a spider, each listed from the vertex next to the body outward."""
    body = max(range(t.n), key=t.degree)
    legs = []
    for first in t.adj[body]:
        leg, prev = [first], body
        while t.degree(leg[-1]) == 2:
            nxt = next(w for w in t.adj[leg[-1]] if w != prev)
            prev = leg[-1]
            leg.append(nxt)
        legs.append(leg)
    return legs


def test_verify_on_hostile_sizes_matches_independent_rules():
    # each tree's only automorphisms are the reversal (path), the leaf
    # permutations (star) and the leg permutations (spider), so each verdict
    # has a closed-form rule that needs no rooting
    rng = random.Random(41)
    n = 10**5
    p, s, sp = path(n), star(n), spider(n, 3)
    legs = spider_legs(sp)
    assert sorted(len(leg) for leg in legs) == [33333] * 3
    half = [rng.getrandbits(1) for _ in range(n // 2)]
    path_masks = [rng.getrandbits(n) for _ in range(3)]
    path_masks.append(int("".join(map(str, half + half[::-1])), 2))  # a palindrome
    path_masks.append(path_masks[-1] ^ 1)
    leg_bits = [rng.getrandbits(len(legs[0])) for _ in range(2)]
    spider_masks = []
    for pattern in ((0, 1, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 0)):
        mask = rng.getrandbits(1) << max(range(n), key=sp.degree)
        for leg, which in zip(legs, pattern):
            mask |= sum((leg_bits[which] >> i & 1) << v for i, v in enumerate(leg))
        spider_masks.append(mask)
    spider_masks += [rng.getrandbits(n) for _ in range(2)]  # three distinct legs
    star_masks = [rng.getrandbits(n) for _ in range(2)] + [(1 << n) - 2]
    cases = [(p, m) for m in path_masks] + [(s, m) for m in star_masks] + [(sp, m) for m in spider_masks]

    def rule(t, bits):
        if t is p:
            return bits != bits[::-1]
        if t is s:
            return len(set(bits[1:])) == n - 1
        return len({"".join(bits[v] for v in leg) for leg in legs}) == 3

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200 + len(inspect.stack(0)))  # fails any recursion over the tree
    try:
        start = time.perf_counter()
        verdicts = [verify_distinguishing(t, Coloring(n, m)) for t, m in cases]
        star_coloring = construct_distinguishing(s)
        elapsed = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == [rule(t, Coloring(n, m).bits()) for t, m in cases]
    assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5
    assert star_coloring is None
    assert elapsed < 60.0
