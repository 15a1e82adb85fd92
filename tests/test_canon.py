import builtins
import pickle
import random
import weakref
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given

from treesym import (
    Coloring,
    Tree,
    asym_unrooted,
    aut_order,
    canon_code,
    center,
    child_classes,
    construct_distinguishing,
    group_order_bound_check,
    is_2_distinguishable,
    is_isomorphic,
    kary_tree,
    motion,
    random_tree,
    relabel,
    root_at,
    spider,
    subtree_codes,
    tree_from_pruefer,
    twin_classes,
    unrank_unrooted,
    unrooted_code,
    verify_distinguishing,
)
from treesym import canon as canon_module
from treesym import coloring as coloring_module
from treesym.asym import a_by_class, asym_at_every_root, asym_of, asym_rooted
from treesym.canon import TreeAnalysis, colored_subtree_codes, colored_unrooted_code
from treesym.oracle import exists_automorphism

from .conftest import (
    kept,
    path,
    random_trees,
    recorded,
    relabeled,
    relabeled_families,
    sample_roots,
    star,
    traced,
    trees_up_to,
    trees_with_permutation,
)

from .reference import (
    reference_analysis,
    reference_colored_unrooted_code,
    reference_subtree_codes,
    reference_unrooted_code,
)


def brute_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Oracle: search all vertex bijections for an edge-preserving one."""
    if t1.n != t2.n:
        return False
    e1 = list(t1.edges())
    e2 = set(map(frozenset, t2.edges()))
    for perm in permutations(range(t2.n)):
        if all(frozenset((perm[u], perm[v])) in e2 for u, v in e1):
            return True
    return False


def test_leaf_code(p3):
    rt = root_at(p3, 0)
    assert canon_code(rt, 1) == b"()"


def test_p3_root_code(p3):
    rt = root_at(p3, 0)
    assert canon_code(rt, 0) == b"(()())"


def test_p4_chain_code(p4):
    rt = root_at(p4, 0)
    assert canon_code(rt, 0) == b"(((())))"
    assert canon_code(rt, 1) == b"((()))"


def test_code_length_is_twice_subtree_size(p4, k13):
    for t in (p4, k13):
        for w in range(t.n):
            rt = root_at(t, w)
            codes = subtree_codes(rt)
            for v in range(t.n):
                assert len(codes[v]) == 2 * rt.subtree_size[v]


def test_codes_interned_within_tree(k14):
    rt = root_at(k14, 0)
    codes = subtree_codes(rt)
    assert codes[1] is codes[2] is codes[3] is codes[4]


def test_subtree_codes_match_reference():
    rng = random.Random(63)
    for t in trees_up_to(8) + relabeled_families(64, (40, 300)):
        for w in range(t.n) if t.n <= 8 else sample_roots(t, rng):
            rt = root_at(t, w)
            codes = subtree_codes(rt)
            assert codes == reference_subtree_codes(rt)
            assert len({id(c) for c in codes}) == len(set(codes))  # equal codes are one object


def test_twin_classes_star(k14):
    rt = root_at(k14, 0)
    part = twin_classes(rt)
    (cls,) = part.classes_at(0)
    assert cls.members == (1, 2, 3, 4)
    assert cls.multiplicity == 4


def test_twin_classes_chain(p4):
    rt = root_at(p4, 0)
    part = twin_classes(rt)
    for y in range(4):
        for cls in part.classes_at(y):
            assert cls.multiplicity == 1


def test_twin_classes_mixed():
    # root 0 with: a leaf (1), and two pendant 2-chains (2-3, 4-5)
    t = Tree.from_edges(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)])
    rt = root_at(t, 0)
    classes = child_classes(rt, 0)
    by_mult = sorted((c.multiplicity, c.members) for c in classes)
    assert by_mult == [(1, (1,)), (2, (2, 4))]
    # cross-check by explicit subtree isomorphism search
    assert exists_automorphism(t.adj, pinned=0, forced={2: 4})
    assert not exists_automorphism(t.adj, pinned=0, forced={1: 2})


def test_by_vertex_partitions_every_vertex_s_children():
    # by_vertex is classes_at at every vertex with children; the classes cut children[y] into runs, in order
    rng = random.Random(44)
    rootings = [root_at(t, w) for t in trees_up_to(7) for w in range(t.n)]
    rootings += [root_at(t, w) for t in relabeled_families(45, (4, 10, 100, 500)) for w in sample_roots(t, rng)]
    for rt in rootings:
        an = twin_classes(rt)
        by_vertex = an.by_vertex
        assert by_vertex == {y: an.classes_at(y) for y in range(rt.tree.n) if an.children[y]}
        for y, classes in by_vertex.items():
            assert [m for cls in classes for m in cls.members] == list(an.children[y])
            assert all(cls.rep == cls.members[0] for cls in classes)


def test_colored_subtree_codes_rejects_a_coloring_of_another_length(p4):
    for bits in ("0", "000", "00000"):
        with pytest.raises(ValueError, match="^coloring length does not match tree$"):
            colored_subtree_codes(root_at(p4, 0), Coloring.from_bits(bits))


def test_is_isomorphic_examples(p3, p4, k13):
    relabeled = relabel(p3, [2, 0, 1])
    assert is_isomorphic(p3, relabeled)
    assert not is_isomorphic(p4, k13)


def test_is_isomorphic_all_n6_pairwise():
    trees = [t for t in trees_up_to(6) if t.n == 6]
    assert len(trees) == 6
    for i, a in enumerate(trees):
        for j, b in enumerate(trees):
            assert is_isomorphic(a, b) == (i == j)
            assert brute_isomorphic(a, b) == (i == j)


def test_is_isomorphic_matches_bijection_oracle_small():
    trees = trees_up_to(8)
    for i, a in enumerate(trees):
        for b in trees[i:]:
            if a.n != b.n:
                continue
            assert is_isomorphic(a, b) == brute_isomorphic(a, b)


def test_is_isomorphic_matches_unrooted_code_small():
    rng = random.Random(8)
    trees = trees_up_to(8)
    trees += [relabel(t, rng.sample(range(t.n), t.n)) for t in trees for _ in range(2)]
    for a in trees:
        for b in trees:
            assert is_isomorphic(a, b) == (a.n == b.n and unrooted_code(a) == unrooted_code(b)), (a.adj, b.adj)


def test_is_isomorphic_on_equal_degree_sequences():
    # trees that only their shape tells apart, in both argument orders and relabeled
    rng = random.Random(9)
    by_degrees: dict[tuple[int, ...], list[Tree]] = {}
    for t in trees_up_to(10):
        by_degrees.setdefault(tuple(sorted(map(len, t.adj))), []).append(t)
    pairs = 0
    for group in by_degrees.values():
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                b = relabel(b, rng.sample(range(b.n), b.n))
                assert unrooted_code(a) != unrooted_code(b)
                assert not is_isomorphic(a, b) and not is_isomorphic(b, a), (a.adj, b.adj)
                pairs += 1
    assert pairs == 567


def test_is_isomorphic_on_long_paths_is_linear_in_memory():
    # the bytes codes of a path are quadratic in size; the class ids are not
    rng = random.Random(10)
    n = 5 * 10**4
    a, b = path(n), relabel(path(n), rng.sample(range(n), n))
    bent = Tree.from_edges(n, [(i, i + 1) for i in range(n - 2)] + [(1, n - 1)])
    same, peak = traced(lambda: (is_isomorphic(a, b), is_isomorphic(b, bent)))
    assert same == (True, False)
    assert peak < 60 * 10**6


@given(trees_with_permutation(max_n=10))
def test_relabel_invariance(tp):
    t, perm = tp
    u = relabel(t, perm)
    for w in range(t.n):
        assert canon_code(root_at(t, w), w) == canon_code(root_at(u, perm[w]), perm[w])


@given(random_trees(max_n=9))
def test_equal_codes_iff_isomorphic_subtrees(t):
    for w in range(t.n):
        rt = root_at(t, w)
        codes = subtree_codes(rt)
        for y in range(t.n):
            kids = rt.children[y]
            for i, a in enumerate(kids):
                for b in kids[i + 1 :]:
                    same_class = codes[a] == codes[b]
                    # twins are exactly sibling pairs swappable by an automorphism fixing y
                    swappable = exists_automorphism(t.adj, pinned=y, forced={a: b})
                    assert same_class == swappable


def test_twin_classes_are_child_orbits():
    # twin classes == orbits of children under automorphisms fixing the parent
    for t in trees_up_to(8):
        for y in range(t.n):
            rt = root_at(t, y)
            for cls in child_classes(rt, y):
                for m in cls.members:
                    assert exists_automorphism(t.adj, pinned=y, forced={cls.rep: m})
            reps = [c.rep for c in child_classes(rt, y)]
            for i, a in enumerate(reps):
                for b in reps[i + 1 :]:
                    assert not exists_automorphism(t.adj, pinned=y, forced={a: b})


def analysis_fields(rt, cut=None):
    an = TreeAnalysis.of(rt, cut)
    assert an.rt is rt
    return an.roots, an.children, an.ids, an.sigs, an.reps


def test_analysis_matches_reference_all_small_trees():
    # the ids, and the children order within a class, fix the unranking
    for t in trees_up_to(10):
        for w in range(t.n):
            rt = root_at(t, w)
            for cut in (None, *rt.children[w]):
                assert analysis_fields(rt, cut) == reference_analysis(rt, cut)


def test_analysis_matches_reference_relabeled_families():
    rng = random.Random(41)
    for t in relabeled_families(43, (4, 10, 100, 500, 2000)):
        for w in sample_roots(t, rng):
            rt = root_at(t, w)
            for cut in (None, rt.children[w][0], rt.children[w][-1]):
                assert analysis_fields(rt, cut) == reference_analysis(rt, cut)


def count_sorts(monkeypatch) -> list[int]:
    """Shadow ``sorted`` in the two kernel modules and record the length of every sorted list."""
    calls: list[int] = []

    def counted(items, **kwargs):
        out = builtins.sorted(items, **kwargs)
        calls.append(len(out))
        return out

    for mod in (canon_module, coloring_module):
        monkeypatch.setattr(mod, "sorted", counted, raising=False)
    return calls


def test_two_child_vertices_take_no_sort(monkeypatch):
    # the class-id and colored-id kernels order two children by one comparison; they change
    # no output, so only this count fails if that case is dropped
    rng = random.Random(29)
    edges, leaves = [], [0]
    while len(leaves) < 40:  # a random full binary tree: every internal vertex has two children at 0
        x = leaves.pop(rng.randrange(len(leaves)))
        leaves += [len(edges) + 1, len(edges) + 2]
        edges += [(x, len(edges) + 1), (x, len(edges) + 2)]
    perms = [rng.sample(range(n), n) for n in (31, len(edges) + 1)]
    complete, full = relabel(kary_tree(31, 2), perms[0]), relabel(Tree.from_edges(len(edges) + 1, edges), perms[1])
    expected = reference_analysis(root_at(full, perms[1][0]))
    calls = count_sorts(monkeypatch)
    rt = root_at(full, perms[1][0])
    assert analysis_fields(rt) == expected
    assert any(an_kids != kids for an_kids, kids in zip(expected[1], rt.children))  # some pair swapped
    an = TreeAnalysis.at_center(complete)
    assert an.roots == (perms[0][0],) and all(len(kids) in (0, 2) for kids in an.children)
    coloring = construct_distinguishing(complete)
    assert verify_distinguishing(complete, coloring)
    assert not verify_distinguishing(complete, Coloring(complete.n, 0))
    assert calls == []

    # the center of a 3-leg spider still sorts its three children: in the analysis, then in
    # the check inside the construction and in the verification
    t = relabel(spider(40, 3), rng.sample(range(40), 40))
    TreeAnalysis.at_center(t)
    assert calls == [3]
    assert verify_distinguishing(t, construct_distinguishing(t))
    assert calls == [3, 3, 3]


def rooted_types(max_n):
    """One rooted tree per isomorphism type with at most max_n vertices, as (tree, root)."""
    seen = {}
    for t in trees_up_to(max_n):
        for w in range(t.n):
            seen.setdefault(canon_code(root_at(t, w), w), (t, w))
    return list(seen.values())


def test_wide_vertex_of_distinct_classes():
    # a root with one copy of every rooted tree on at most 9 vertices: its key
    # holds 486 pairwise distinct classes, the widest run table in the tests
    types = rooted_types(9)
    assert len(types) == 486  # OEIS A000081, summed over 1..9
    edges = []
    n = 1
    for t, w in types:
        edges.extend((n + u, n + v) for u, v in t.edges())
        edges.append((0, n + w))
        n += t.n
    wide = Tree.from_edges(n, edges)
    assert n == 4021
    rt = root_at(wide, 0)
    fields = analysis_fields(rt)
    assert fields == reference_analysis(rt)
    ids, sigs = fields[2], fields[3]
    assert len(sigs[ids[0]]) == 486
    assert all(mu == 1 for _, mu in sigs[ids[0]])
    an = TreeAnalysis.of(rt)  # a(T,0) from the rooting at 0 itself, as the reference
    assert asym_rooted(rt) == asym_at_every_root(wide)[0] == asym_of(an, a_by_class(an))


# tracemalloc peaks on Python 3.11, doubled: star 9 MB, path 41 MB
@pytest.mark.parametrize(
    "shape, w, ceiling_mb",
    [(star, 0, 18), (star, 1, 18), (path, 0, 82)],
    ids=["star-center", "star-leaf", "path-end"],
)
def test_rooting_and_analysis_of_huge_trees(shape, w, ceiling_mb):
    # iterative all the way down: no recursion limit, and memory linear in n
    t = shape(10**5)
    an, peak = traced(lambda: TreeAnalysis.of(root_at(t, w)))
    assert an.rt.subtree_size[w] == t.n
    assert an.ids[w] == len(an.sigs) - 1
    assert peak < ceiling_mb * 10**6


def test_public_functions_share_one_center_analysis(monkeypatch):
    # without the memo on the tree these calls made 9 center, 9 root_at and 9 TreeAnalysis.of calls
    perm = list(range(40))
    random.Random(1).shuffle(perm)
    t = relabel(spider(40, 3), perm)
    calls = recorded(monkeypatch, center, root_at, (TreeAnalysis, "of"))
    assert aut_order(t) == 6
    assert motion(t).moved == 26
    a = asym_unrooted(t)
    assert a > 0
    assert group_order_bound_check(t).holds
    c0 = construct_distinguishing(t)
    ck = unrank_unrooted(t, a - 1)
    assert verify_distinguishing(t, c0)
    assert verify_distinguishing(t, ck)
    assert not verify_distinguishing(t, Coloring(t.n, 0))
    assert Counter(name for name, _ in calls) == {"center": 1, "root_at": 1, "of": 1}
    assert TreeAnalysis.at_center(t) is TreeAnalysis.at_center(t)
    assert TreeAnalysis.at_center(t).rt.tree is t
    assert len(calls) == 3

    # an equal tree built anew gets an analysis of its own
    twin = Tree.from_edges(t.n, t.edges())
    assert twin == t
    an = TreeAnalysis.at_center(twin)
    assert an is not TreeAnalysis.at_center(t)
    assert an.rt.tree is twin
    assert len(calls) == 6

    # a pinned check gives the pin a third color and reads the kept center analysis
    calls.clear()
    for _ in range(2):
        assert verify_distinguishing(t, c0, pinned=perm[1])
    assert calls == []


def memo_corpus() -> list[Tree]:
    """All trees with n <= 9, and relabeled random Prüfer, spider and path trees up to n = 300."""
    rng = random.Random(11)
    out = list(trees_up_to(9))
    for n in (10, 17, 64, 150, 300):
        for t in (random_tree(rng, n), spider(n, 3), path(n)):
            out.append(relabeled(t, rng))
    return out


def test_warm_tree_matches_fresh_trees():
    rng = random.Random(12)
    for t in memo_corpus():
        edges = list(t.edges())

        def fresh():
            return Tree.from_edges(t.n, edges)

        a = asym_unrooted(fresh())
        calls = {
            "aut_order": aut_order,
            "motion": motion,
            "asym_unrooted": asym_unrooted,
            "is_2_distinguishable": is_2_distinguishable,
            "construct_distinguishing": construct_distinguishing,
        }
        colorings = [Coloring(t.n, rng.getrandbits(t.n))]
        if a > 0:
            k = rng.randrange(a)
            calls["group_order_bound_check"] = group_order_bound_check
            calls["unrank_unrooted"] = lambda u, k=k: unrank_unrooted(u, k)
            colorings += [construct_distinguishing(fresh()), unrank_unrooted(fresh(), k)]
        for i, c in enumerate(colorings):
            calls[f"verify_distinguishing {i}"] = lambda u, c=c: verify_distinguishing(u, c)
        expected = {name: f(fresh()) for name, f in calls.items()}
        warm = fresh()
        pickled = pickle.dumps(warm)
        for _ in range(2):
            names = list(calls)
            rng.shuffle(names)
            assert {name: calls[name](warm) for name in names} == expected, edges
        # the memo is invisible to equality, hashing, repr and pickling
        other = fresh()
        assert warm == other
        assert hash(warm) == hash(other)
        assert repr(warm) == repr(other)
        assert pickle.dumps(warm) == pickled
        back = pickle.loads(pickled)
        assert back == warm
        assert TreeAnalysis.at_center(back).rt.tree is back


def test_center_memo_keeps_linear_memory():
    # the memo holds one TreeAnalysis; keeping the a-values too would add the
    # n^2/8 bits of a path's a_by_class, another 7 MB here
    t = path(20_000)
    (a, coloring), held = kept(lambda: (asym_unrooted(t), construct_distinguishing(t)))
    assert a > 0 and coloring is not None
    assert held < 7.8 * 10**6  # 3.9 MB on Python 3.11, doubled


def test_dropped_trees_are_collected():
    # the memo makes a cycle (tree -> analysis -> rooting -> tree) that the collector frees
    adj = star(4000).adj
    live: weakref.WeakSet = weakref.WeakSet()
    most = 0
    for _ in range(300):
        t = Tree(4000, adj)
        asym_unrooted(t)
        live.add(t)
        del t
        most = max(most, len(live))
    assert most <= 10  # 1 on Python 3.11


def pruefer_20k() -> Tree:
    return tree_from_pruefer(20_000, random.Random(35).choices(range(20_000), k=19_998))


@pytest.mark.parametrize("make", [pruefer_20k, lambda: kary_tree(20_000, 2)], ids=["prufer", "binary"])
def test_a_values_within_budget_are_kept(make):
    # at most 64 bits per class on average, so within 64 bits per vertex: the list is kept on the center analysis
    t = make()
    an = TreeAnalysis.at_center(t)
    a = a_by_class(an)
    assert sum(map(int.bit_length, a)) <= 64 * len(an.sigs)
    assert a_by_class(an) is a
    assert a_by_class(TreeAnalysis.at_center(t)) is a


def test_a_values_of_a_long_path_are_not_kept():
    # a path's values are about n^2/8 bits, far over 64 bits per class
    an = TreeAnalysis.at_center(path(20_000))
    a = a_by_class(an)
    assert "_a" not in an.__dict__
    again = a_by_class(an)
    assert again is not a and again == a


def test_kept_a_values_keep_linear_memory():
    # a random tree this large has three leaves at one vertex, so a(T) = 0, but its class values are kept
    t = pruefer_20k()
    (a, coloring), held = kept(lambda: (asym_unrooted(t), construct_distinguishing(t)))
    assert a == 0 and coloring is None
    assert "_a" in TreeAnalysis.at_center(t).__dict__
    assert held < 6.2 * 10**6  # 3.1 MB on Python 3.11, doubled


def center_ends_corpus() -> list[Tree]:
    """All trees with n <= 10 and two relabelings of each, then seeded Prüfer, spider and path trees, n 50..400."""
    rng = random.Random(16)
    out = []
    for t in trees_up_to(10):
        out.append(t)
        out += [relabeled(t, rng) for _ in range(2)]
    for n in (50, 51, 128, 257, 400):
        for t in (random_tree(rng, n), spider(n, 4), path(n)):
            out.append(relabeled(t, rng))
    return out


def test_codes_from_center_ends_match_reference_fresh_and_warm():
    rng = random.Random(17)
    for t in center_ends_corpus():
        edges = list(t.edges())
        coloring = Coloring(t.n, rng.getrandbits(t.n))
        want = reference_unrooted_code(Tree.from_edges(t.n, edges))
        want_colored = reference_colored_unrooted_code(Tree.from_edges(t.n, edges), coloring)
        fresh = Tree.from_edges(t.n, edges)
        got = (unrooted_code(fresh), colored_unrooted_code(fresh, coloring))
        assert "_center_analysis" not in fresh.__dict__
        warm = Tree.from_edges(t.n, edges)
        TreeAnalysis.at_center(warm)
        assert got == (want, want_colored) == (unrooted_code(warm), colored_unrooted_code(warm, coloring)), edges


@pytest.mark.parametrize("t", [path(7), path(8), star(6)], ids=["vertex-center", "edge-center", "star"])
def test_codes_take_the_center_from_center_alone(monkeypatch, t):
    # the codes read the ends from one center call, not from the center analysis, and leave no memo
    t = Tree.from_edges(t.n, t.edges())
    calls = recorded(monkeypatch, center, root_at, (TreeAnalysis, "of"))
    for code in (unrooted_code, lambda u: colored_unrooted_code(u, Coloring(u.n, 1))):
        assert code(t)
        names = Counter(name for name, _ in calls)
        assert names["center"] == 1 and names["root_at"] <= 2 and names["of"] == 0, calls
        assert "_center_analysis" not in t.__dict__
        calls.clear()
