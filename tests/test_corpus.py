import functools
import random
import re
from types import SimpleNamespace

import pytest

from treesym import (
    CorpusSpec,
    Motion,
    Tree,
    asym_unrooted,
    conjecture_check,
    extend_ray_coloring,
    generate,
    is_isomorphic,
    kary_tree,
    lobed_extremal,
    motion,
    random_one_ended_truncation,
    run_theorem_suite,
    serialize_edge_list,
    spider,
    tree_from_pruefer,
    unrooted_code,
    verify_distinguishing,
)
from treesym import corpus as corpus_module
from treesym import trees as trees_module
from treesym.corpus import FAMILIES, LOBED_EXTREMAL_MAX, SuiteReport, all_trees, caterpillar, random_tree
from treesym.oracle import brute_graph_aut
from treesym.treelike import RootedGraph, _component_tree, extract_forest, treelike_distinguish

from .conftest import Raised, outcome, recorded, run_cli, run_python, traced, trees_up_to
from .reference import reference_generate, reference_pruefer_edges, reference_run_theorem_suite, reference_spider
from .test_treelike import cycle, differential_graphs, grid

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}


def test_all_trees_counts():
    for n, want in EXPECTED_COUNTS.items():
        assert sum(1 for _ in all_trees(n)) == want


def test_all_trees_pairwise_non_isomorphic():
    for n in range(1, 9):
        trees = list(all_trees(n))
        for i, a in enumerate(trees):
            for b in trees[i + 1 :]:
                assert not is_isomorphic(a, b)


def decoded_tree(n: int, seq) -> Tree:
    """``tree_from_pruefer(n, seq)``, checked to be a tree (n - 1 edges that one BFS spans) before any code
    is read from it: the rooting behind a code never ends on a cycle."""
    t = tree_from_pruefer(n, seq)
    assert sum(map(len, t.adj)) == 2 * n - 2 and len(trees_module._bfs(t.adj, 0)[0]) == n, (n, seq)
    return t


def test_all_trees_complete_vs_pruefer_dedup():
    # independent completeness check: decode every Pruefer sequence, dedup by code
    for n in range(1, 9):
        if n <= 2:
            seqs = [[]]
        else:
            seqs = [[(i // n**j) % n for j in range(n - 2)] for i in range(n ** (n - 2))]
        codes = {unrooted_code(decoded_tree(n, s)) for s in seqs}
        assert codes == {unrooted_code(t) for t in all_trees(n)}


def test_all_trees_distinct_up_to_cap():
    for n in range(9, 13):
        assert len({unrooted_code(t) for t in all_trees(n)}) == EXPECTED_COUNTS[n]


def test_import_loads_only_the_standard_library():
    # A fresh interpreter, so modules other tests imported do not count.
    probe = (
        "import sys; before = set(sys.modules); import treesym; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print('networkx' in sys.modules, sorted(new - set(sys.stdlib_module_names) - {'treesym'}))"
    )
    r = run_python("-c", probe, timeout=60)
    assert (r.code, r.out) == (0, "False []\n"), r.err


def test_all_trees_cap():
    with pytest.raises(ValueError):
        list(all_trees(13))


def test_pruefer_decode_golden():
    t = tree_from_pruefer(5, [0, 0, 1])
    assert sorted(t.edges()) == [(0, 1), (0, 2), (0, 3), (1, 4)]


def decoded_edges(monkeypatch, n, seq):
    """The edge list tree_from_pruefer hands to the adjacency builder, in order."""
    seen = recorded(monkeypatch, (corpus_module, "_build_adjacency"))
    try:
        tree_from_pruefer(n, seq)
    finally:
        monkeypatch.undo()
    _, (_, edges) = seen[0]
    return edges


def test_pruefer_decoder_matches_reference(monkeypatch):
    rng = random.Random(17)
    cases = [(1, []), (2, []), (3, [0]), (3, [2])]
    cases += [(n, [c] * (n - 2)) for n in (3, 4, 10, 60) for c in (0, n // 2, n - 1)]
    for _ in range(3000):
        n = rng.randint(3, 60)
        cases.append((n, [rng.randrange(n) for _ in range(n - 2)]))
    for n, seq in cases:
        assert decoded_edges(monkeypatch, n, seq) == reference_pruefer_edges(n, seq)


@pytest.mark.parametrize(
    "n, seq", [(4, [0]), (4, [0, 1, 2]), (4, [0, 4]), (4, [-1, 0]), (0, []), (-1, []), (0, [0, 0]), (1, [5, 7]), (1, [0])]
)
def test_pruefer_rejects_invalid(n, seq):
    with pytest.raises(ValueError, match=r"^sequence must have length n-2 with entries in 0\.\.n-1$"):
        tree_from_pruefer(n, seq)


def assert_built_as_validated(t):
    assert t == Tree.from_edges(t.n, list(t.edges()))


def generated_families():
    """Every generator's trees that skip Tree.from_edges, but for tree_from_pruefer and all_trees."""
    for n in range(2, 60):
        for legs in range(1, n):
            yield spider(n, legs)
    for n in range(1, 61):
        for arity in range(1, 6):
            yield kary_tree(n, arity)
    rng = random.Random(38)
    for _ in range(200):
        yield caterpillar(rng.randint(1, 300), rng)
    for m in range(2, 13, 2):
        yield lobed_extremal(m)
    for _ in range(100):
        yield random_one_ended_truncation(rng)[0].tree


def component_trees():
    """``treelike._component_tree`` on every forest component of tests/test_treelike.py's graphs."""
    for g in [*differential_graphs(), cycle(4), cycle(7, 3), grid(6), grid(5, 12)]:
        forest = extract_forest(g)
        for members in forest.components:
            yield _component_tree(forest, members)


def test_unvalidated_builds_equal_validated_builds():
    # every tree treesym makes itself skips Tree.from_edges: every sequence for n <= 7, 2,000 seeded
    # sequences up to n = 300, every free tree up to n = 10, the other families and the tree-like
    # forest's components must come out as from_edges builds them
    for n in range(1, 8):
        for i in range(n ** max(n - 2, 0)):
            assert_built_as_validated(tree_from_pruefer(n, [i // n**j % n for j in range(n - 2)]))
    rng = random.Random(30)
    for _ in range(2000):
        assert_built_as_validated(random_tree(rng, rng.randint(1, 300)))
    for n in range(1, 11):
        for t in all_trees(n):
            assert_built_as_validated(t)
    for t in generated_families():
        assert_built_as_validated(t)
    for t in component_trees():
        assert_built_as_validated(t)


def test_generated_trees_build_no_checked_adjacency(monkeypatch):
    # Tree.from_edges checks each edge in trees._adjacency: no generator, and no tree-like forest
    # component, goes through it
    from treesym import trees

    calls = recorded(monkeypatch, (trees, "_adjacency"))
    built = sum(1 for _ in generated_families()) + sum(1 for _ in component_trees())
    # two 4-cycles joined at the root: its forest is the star of the root and the two far corners
    g = RootedGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)], 0)
    assert calls == [] and built > 3000
    assert len(brute_graph_aut(g.adj)) > 1 and len(extract_forest(g).components) >= 2
    treelike_distinguish(g)
    assert calls == []


def test_random_tree_deterministic():
    a = random_tree(random.Random(42), 5)
    b = random_tree(random.Random(42), 5)
    assert a.adj == b.adj
    # frozen golden outputs pin the decoder and the RNG stream
    assert serialize_edge_list(a) == "5\n0 1\n0 2\n0 3\n2 4\n"
    assert serialize_edge_list(random_tree(random.Random(0), 7)) == (
        "7\n0 3\n0 6\n1 6\n2 3\n3 5\n4 6\n"
    )


def test_random_tree_small_orders_draw_nothing():
    for n, edges in ((1, []), (2, [(0, 1)])):
        rng = random.Random(5)
        state = rng.getstate()
        assert random_tree(rng, n) == Tree.from_edges(n, edges)
        assert rng.getstate() == state


def test_generate_validates():
    with pytest.raises(ValueError):
        list(generate(CorpusSpec("nonsense")))
    with pytest.raises(ValueError):
        list(generate(CorpusSpec("all-trees")))
    with pytest.raises(ValueError):
        list(generate(CorpusSpec("lobed-extremal", m=3)))


def test_generate_matches_reference_on_every_field_combination():
    families = ("random-prufer", "all-trees", "kary", "caterpillar", "lobed-extremal", "spider", "nonsense", "")
    seen_errors = set()
    for family in families:
        for n in (None, 0, 1, 6):
            for arity in (None, 0, 2):
                for m in (None, 3, 4):
                    for count in (None, 0, 1, 3):
                        spec = CorpusSpec(family, n=n, arity=arity, m=m, count=count, seed=7)
                        want = outcome(reference_generate, spec)
                        assert outcome(generate, spec) == want, spec
                        if isinstance(want, Raised):
                            seen_errors.add(want.message)
    assert len(seen_errors) == 14, seen_errors  # six presence messages, two unknown families, six from the generators


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: random_tree(random.Random(1), 0), "n must be at least 1"),
        (lambda: random_tree(random.Random(1), -3), "n must be at least 1"),
        (lambda: caterpillar(0, random.Random(1)), "n must be at least 1"),
        (lambda: spider(5, 0), "legs must be at least 1"),
        (lambda: spider(3, 3), "need n >= legs + 1"),
        (lambda: lobed_extremal(28), "m = 28 exceeds cap 26"),
        (lambda: lobed_extremal(40), "m = 40 exceeds cap 26"),
        (lambda: lobed_extremal(10**9), "m = 1000000000 exceeds cap 26"),
        (lambda: lobed_extremal(10**300), f"m = 1{'0' * 39}... (cut, 301 characters) exceeds cap 26"),
        (lambda: next(generate(CorpusSpec("x" * 500))),  # 616 characters with the family quoted in full
         f"unknown family '{'x' * 40}'... (cut, 500 characters); expected one of {tuple(FAMILIES)}"),
        (lambda: next(all_trees(0)), "n must be at least 1"),
        (lambda: next(all_trees(-1)), "n must be at least 1"),
        (lambda: kary_tree(0, 2), "vertex count must be at least 1"),
        (lambda: kary_tree(-1, 2), "vertex count must be at least 1"),
        (lambda: kary_tree(0, 0), "arity must be at least 1"),  # the arity is checked first
    ],
    ids=["random-0", "random-negative", "caterpillar-0", "spider-no-legs", "spider-short",
         "lobed-28", "lobed-40", "lobed-1e9", "lobed-1e300", "long-family", "all-trees-0", "all-trees-negative", "kary-0", "kary-negative",
         "kary-0-no-arity"],
)
def test_family_arguments_name_what_is_wrong(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("m", [28, 40, 10**9])
def test_lobed_extremal_past_the_cap_builds_nothing(m):
    exc, peak = traced(lambda: pytest.raises(ValueError, lobed_extremal, m))
    exc.match(f"^m = {m} exceeds cap {LOBED_EXTREMAL_MAX}$")
    assert peak < 100_000  # m = 28 would build 229,377 vertices


def test_lobed_extremal_at_the_cap_still_builds():
    t = lobed_extremal(LOBED_EXTREMAL_MAX)
    assert (t.n, t.delta) == (13 * 2**13 + 1, 2**13)


def test_lobed_extremal_m4():
    t = lobed_extremal(4)
    assert t.n == 9
    assert t.delta == 4
    assert motion(t) == Motion(4)
    assert asym_unrooted(t) == 2


def test_lobed_extremal_family():
    for m in (2, 4, 6):
        t = lobed_extremal(m)
        assert t.delta == 1 << (m // 2)
        assert motion(t) == Motion(m)
        assert asym_unrooted(t) == 2


def test_kary_and_spider_shapes():
    t = kary_tree(7, 2)
    assert t.delta == 3
    assert t.degree(0) == 2
    s = spider(7, 3)
    assert s.degree(0) == 3
    assert sorted(s.degree(v) for v in range(1, 7)) == [1, 1, 1, 2, 2, 2]


def test_spider_matches_leg_by_leg_build():
    # every n < 60 with every leg count, lobed_extremal(26)'s spider and two benchmark sizes
    sizes = [(n, legs) for n in range(2, 60) for legs in range(1, n)]
    sizes += [(106_497, 8_192), (4_000, 6), (5_000, 3)]
    for n, legs in sizes:
        assert spider(n, legs) == reference_spider(n, legs), (n, legs)
    assert lobed_extremal(26) == reference_spider(106_497, 8_192)


def test_caterpillar_valid():
    rng = random.Random(1)
    for _ in range(50):
        t = caterpillar(rng.randint(1, 20), rng)
        assert_built_as_validated(t)


def test_generators_emit_valid_trees():
    specs = [
        CorpusSpec("random-prufer", n=12, count=20, seed=5),
        CorpusSpec("caterpillar", n=10, count=10, seed=5),
        CorpusSpec("all-trees", n=7),
        CorpusSpec("kary", n=10, arity=3),
        CorpusSpec("spider", n=9, arity=4),
        CorpusSpec("lobed-extremal", m=6),
    ]
    for spec in specs:
        for t in generate(spec):
            # adjacency symmetric and sorted; connectivity enforced at build time
            for u in range(t.n):
                for v in t.adj[u]:
                    assert u in t.adj[v]


def test_generate_deterministic_given_seed():
    spec = CorpusSpec("random-prufer", n=9, count=5, seed=123)
    first = [serialize_edge_list(t) for t in generate(spec)]
    second = [serialize_edge_list(t) for t in generate(spec)]
    assert first == second


def test_theorem_suite_clean_on_small_corpus():
    trees = trees_up_to(8) + [lobed_extremal(4), lobed_extremal(6)]
    report = run_theorem_suite(trees)
    assert report.ok
    counts = report.counts()
    assert counts["trees"] == len(trees)
    assert counts["checks_failed"] == 0


def test_theorem_suite_fails_loudly_on_a_coloring_that_does_not_verify(monkeypatch, p4):
    # construct_of verifies its coloring, so the suite needs no second check to record a failure
    monkeypatch.setattr("treesym.coloring.distinguishes", lambda an, coloring: False)
    with pytest.raises(AssertionError, match="not distinguishing"):
        run_theorem_suite([p4])
    code, _, err = run_cli("corpus", "--all-trees", "4", "--check")
    assert code == 1 and "internal error" in err


def test_theorem_suite_records_unmet_hypothesis(k13):
    report = run_theorem_suite([k13])
    (rec,) = report.records
    assert rec.hypothesis == "not-met"
    assert ("two-distinguishable", "skip") in rec.checks


def test_theorem_suite_extremal_record():
    report = run_theorem_suite([lobed_extremal(4)])
    (rec,) = report.records
    assert rec.hypothesis == "met"
    assert rec.a == 2
    assert rec.delta == 4
    assert dict(rec.checks)["two-distinguishable"] == "pass"


@functools.cache  # built on first use, so a fault in a generator fails the tests that use it, not collection
def suite_corpus() -> tuple[Tree, ...]:
    """Every free tree up to 9 vertices, the lobed extremal trees, stars, spiders and the 525 seeded Pruefer
    trees of order 10..40 that the CLI checks run under -O: asymmetric trees, met and not-met hypotheses."""
    trees = trees_up_to(9) + [lobed_extremal(m) for m in (2, 4, 6, 8)]
    trees += [spider(n, n - 1) for n in range(2, 20)]
    trees += [spider(1 + legs * length, legs) for length in (1, 2, 3, 4) for legs in range(2, 12)]
    for n in range(10, 41, 5):
        trees += generate(CorpusSpec("random-prufer", n=n, count=75, seed=n))
    return tuple(trees)  # one corpus shared by every caller, so none may change it


def assert_suite_matches_reference(trees) -> SuiteReport:
    got, want = run_theorem_suite(trees), reference_run_theorem_suite(trees)
    assert got.records == want.records
    assert got.to_json() == want.to_json()
    assert got.counterexamples == want.counterexamples
    assert got.summary() == want.summary()
    return got


CHECK_NAMES = ("asymmetric-a-equals-2^n", "two-distinguishable", "construct-verifies", "rooted-lower-bound",
               "group-order-bound", "group-order-bound-equality")


def test_theorem_suite_matches_reference():
    assert len(suite_corpus()) == len(trees_up_to(9)) + 4 + 18 + 40 + 525
    report = assert_suite_matches_reference(suite_corpus())
    assert report.ok
    assert {rec.hypothesis for rec in report.records} == {"met", "not-met", "vacuous-asymmetric"}
    outcomes = {name: {o for rec in report.records for n, o in rec.checks if n == name} for name in CHECK_NAMES}
    assert outcomes == {name: {"pass"} for name in CHECK_NAMES} | {"two-distinguishable": {"pass", "skip"}}


FORCED = {  # corpus attribute -> (replacement, the check it fails)
    "construct_of": (lambda an, a: None, "construct-verifies"),
    "a_at_root": (lambda an, a, w: 0, "rooted-lower-bound"),
    "GroupOrderBound": (SimpleNamespace(of=lambda n, aut, a: SimpleNamespace(holds=False)), "group-order-bound"),
}


@pytest.mark.parametrize("forced", [(name,) for name in FORCED] + [tuple(FORCED)], ids="+".join)
def test_theorem_suite_matches_reference_on_forced_failures(monkeypatch, forced):
    # the counterexamples come in check order within a tree and in stream order across trees
    for name in forced:
        monkeypatch.setattr(corpus_module, name, FORCED[name][0])
    report = assert_suite_matches_reference(suite_corpus())
    failed = [(name, serialize_edge_list(t)) for t, rec in zip(suite_corpus(), report.records)
              for name, outcome in rec.checks if outcome == "fail"]
    assert [(ce["check"], ce["tree"]) for ce in report.counterexamples] == failed
    assert {name for name, _ in failed} == {FORCED[name][1] for name in forced}
    assert report.counts()["checks_failed"] == len(failed)


def test_conjecture_examples(k13, p4):
    rep = conjecture_check(k13)
    assert rep.consistent and not rep.local_ok and not rep.distinguishable
    assert rep.violation is not None
    rep = conjecture_check(p4)
    assert rep.consistent and rep.local_ok and rep.distinguishable


def test_conjecture_consistent_small():
    for t in trees_up_to(8):
        assert conjecture_check(t).consistent


def test_random_truncations_satisfy_hypothesis_and_extend():
    rng = random.Random(11)
    for _ in range(25):
        tr, colors = random_one_ended_truncation(rng)
        assert len(tr.ray) <= 20
        assert all(len(lobe) <= 6 for lobe in tr.lobes)
        m = motion(tr.tree)
        if not m.is_asymmetric:
            assert tr.tree.delta <= 1 << (m.moved // 2)
        ext = extend_ray_coloring(tr, colors)
        assert verify_distinguishing(tr.tree, ext, pinned=tr.ray[-1])


def test_random_truncation_rejects_and_gives_up():
    class Greedy(random.Random):
        """Scripted draws: the longest ray, twin paths of order 2 (motion 4), the most families at every vertex."""

        candidates = 0

        def randint(self, a, b):
            return b

        def choice(self, seq):
            self.candidates += 1
            return seq[0]

        def random(self):
            return 0.99

    # max_lobe 11 hangs 5 twin pairs at each ray vertex: degree 7 > 2^(4/2), so every candidate is rejected
    rng = Greedy()
    with pytest.raises(RuntimeError, match="could not generate a hypothesis-satisfying truncation"):
        random_one_ended_truncation(rng, max_ray=4, max_lobe=11)
    assert rng.candidates == 500
