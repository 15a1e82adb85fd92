import random
import re
import subprocess
import sys
import tracemalloc

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
from treesym.cli import main
from treesym.corpus import LOBED_EXTREMAL_MAX, all_trees, caterpillar, random_tree

from .conftest import subprocess_env, trees_up_to

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


def test_all_trees_complete_vs_pruefer_dedup():
    # independent completeness check: decode every Pruefer sequence, dedup by code
    for n in range(1, 9):
        if n <= 2:
            seqs = [[]]
        else:
            seqs = [[(i // n**j) % n for j in range(n - 2)] for i in range(n ** (n - 2))]
        codes = {unrooted_code(tree_from_pruefer(n, s)) for s in seqs}
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
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env(), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "False []\n"), proc.stderr


def test_all_trees_cap():
    with pytest.raises(ValueError):
        list(all_trees(13))


def test_pruefer_decode_golden():
    t = tree_from_pruefer(5, [0, 0, 1])
    assert sorted(t.edges()) == [(0, 1), (0, 2), (0, 3), (1, 4)]


def reference_pruefer_edges(n, seq):
    """The quadratic decoder (rescan for the smallest leaf), kept as the reference."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    deg = [1] * n
    for a in seq:
        deg[a] += 1
    edges = []
    for a in seq:
        for j in range(n):
            if deg[j] == 1:
                edges.append((a, j))
                deg[a] -= 1
                deg[j] -= 1
                break
    u, v = (j for j in range(n) if deg[j] == 1)
    edges.append((u, v))
    return edges


def decoded_edges(monkeypatch, n, seq):
    """The edge list tree_from_pruefer hands to the adjacency builder, in order."""
    seen = []
    build = corpus_module._build_adjacency
    monkeypatch.setattr(corpus_module, "_build_adjacency", lambda n, edges: seen.append(list(edges)) or build(n, edges))
    try:
        tree_from_pruefer(n, seq)
    finally:
        monkeypatch.undo()
    return seen[0]


def test_pruefer_decoder_matches_reference(monkeypatch):
    rng = random.Random(17)
    cases = [(1, []), (2, []), (3, [0]), (3, [2])]
    cases += [(n, [c] * (n - 2)) for n in (3, 4, 10, 60) for c in (0, n // 2, n - 1)]
    for _ in range(3000):
        n = rng.randint(3, 60)
        cases.append((n, [rng.randrange(n) for _ in range(n - 2)]))
    for n, seq in cases:
        assert decoded_edges(monkeypatch, n, seq) == reference_pruefer_edges(n, seq)


@pytest.mark.parametrize("n, seq", [(4, [0]), (4, [0, 1, 2]), (4, [0, 4]), (4, [-1, 0]), (0, []), (-1, []), (0, [0, 0])])
def test_pruefer_rejects_invalid(n, seq):
    with pytest.raises(ValueError, match=r"^sequence must have length n-2 with entries in 0\.\.n-1$"):
        tree_from_pruefer(n, seq)


def assert_built_as_validated(t):
    assert t == Tree.from_edges(t.n, list(t.edges()))


def test_unvalidated_builds_equal_validated_builds():
    # tree_from_pruefer and all_trees skip Tree.from_edges: every sequence for n <= 7, 2,000 seeded
    # sequences up to n = 300 and every free tree up to n = 10 must come out as from_edges builds them
    for n in range(1, 8):
        for i in range(n ** max(n - 2, 0)):
            assert_built_as_validated(tree_from_pruefer(n, [i // n**j % n for j in range(n - 2)]))
    rng = random.Random(30)
    for _ in range(2000):
        assert_built_as_validated(random_tree(rng, rng.randint(1, 300)))
    for n in range(1, 11):
        for t in all_trees(n):
            assert_built_as_validated(t)


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


def reference_generate(spec: CorpusSpec):
    """generate() as it was written before the family table: one presence check per family."""
    families = ("random-prufer", "all-trees", "kary", "caterpillar", "lobed-extremal", "spider")
    if spec.family not in families:
        raise ValueError(f"unknown family {spec.family!r}; expected one of {families}")
    if spec.family == "all-trees":
        if spec.n is None:
            raise ValueError("all-trees requires n")
        yield from all_trees(spec.n)
        return
    if spec.family == "lobed-extremal":
        if spec.m is None:
            raise ValueError("lobed-extremal requires m")
        yield lobed_extremal(spec.m)
        return
    if spec.family == "kary":
        if spec.n is None or spec.arity is None:
            raise ValueError("kary requires n and arity")
        yield kary_tree(spec.n, spec.arity)
        return
    if spec.family == "spider":
        if spec.n is None or spec.arity is None:
            raise ValueError("spider requires n and arity")
        yield spider(spec.n, spec.arity)
        return
    if spec.n is None:
        raise ValueError(f"{spec.family} requires n")
    count = spec.count if spec.count is not None else 1
    rng = random.Random(spec.seed)
    for _ in range(count):
        if spec.family == "random-prufer":
            yield random_tree(rng, spec.n)
        else:
            yield caterpillar(spec.n, rng)


def trees_or_error(gen):
    try:
        return list(gen)
    except ValueError as exc:
        return type(exc), str(exc)


def test_generate_matches_reference_on_every_field_combination():
    families = ("random-prufer", "all-trees", "kary", "caterpillar", "lobed-extremal", "spider", "nonsense", "")
    seen_errors = set()
    for family in families:
        for n in (None, 0, 1, 6):
            for arity in (None, 0, 2):
                for m in (None, 3, 4):
                    for count in (None, 0, 1, 3):
                        spec = CorpusSpec(family, n=n, arity=arity, m=m, count=count, seed=7)
                        want = trees_or_error(reference_generate(spec))
                        assert trees_or_error(generate(spec)) == want, spec
                        if isinstance(want, tuple):
                            seen_errors.add(want[1])
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
        (lambda: next(all_trees(0)), "n must be at least 1"),
        (lambda: next(all_trees(-1)), "n must be at least 1"),
    ],
    ids=["random-0", "random-negative", "caterpillar-0", "spider-no-legs", "spider-short",
         "lobed-28", "lobed-40", "lobed-1e9", "all-trees-0", "all-trees-negative"],
)
def test_family_arguments_name_what_is_wrong(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("m", [28, 40, 10**9])
def test_lobed_extremal_past_the_cap_builds_nothing(m):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^m = {m} exceeds cap {LOBED_EXTREMAL_MAX}$"):
            lobed_extremal(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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


def reference_spider(n: int, legs: int) -> Tree:
    """The previous leg-by-leg build: each leg a path from the center, the first ``extra`` one longer."""
    base, extra = divmod(n - 1, legs)
    edges = []
    nxt = 1
    for i in range(legs):
        length = base + (1 if i < extra else 0)
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree.from_edges(n, edges)


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
        assert t.n >= 1  # Tree.from_edges validated it


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


def test_theorem_suite_fails_loudly_on_a_coloring_that_does_not_verify(monkeypatch, p4, capsys):
    # construct_of verifies its coloring, so the suite needs no second check to record a failure
    monkeypatch.setattr("treesym.coloring.distinguishes", lambda an, coloring: False)
    with pytest.raises(AssertionError, match="not distinguishing"):
        run_theorem_suite([p4])
    assert main(["corpus", "--all-trees", "4", "--check"]) == 1
    assert "internal error" in capsys.readouterr().err


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
