import dataclasses
import random
from collections import Counter
from itertools import product

import pytest

from treesym import (
    AutomorphismLimitExceeded,
    Motion,
    OracleSizeError,
    Tree,
    brute_asym,
    brute_graph_aut,
    brute_motion,
    enumerate_automorphisms,
    exists_automorphism,
    kary_tree,
    random_tree,
    spider,
)
from treesym import autom as autom_module
from treesym import oracle as oracle_module
from treesym.autom import _automorphisms
from treesym.oracle import OrbitReport, _budgeted_automorphisms

from .conftest import Raised, outcome, path, recorded, star, traced, trees_up_to
from .reference import (
    _apply_table,
    _mask_images,
    _reference_moved,
    reference_automorphisms,
    reference_brute_asym,
    reference_brute_motion,
)


def test_brute_asym_k1(k1):
    rep = brute_asym(k1)
    assert (rep.total_colorings, rep.distinguishing_count, rep.orbit_count, rep.aut_order) == (
        2, 2, 2, 1,
    )


def test_brute_asym_p3(p3):
    rep = brute_asym(p3)
    assert (rep.total_colorings, rep.distinguishing_count, rep.orbit_count, rep.aut_order) == (
        8, 4, 2, 2,
    )


def test_brute_asym_k13(k13):
    rep = brute_asym(k13)
    assert rep.distinguishing_count == 0
    assert rep.orbit_count == 0
    assert rep.aut_order == 6


def test_orbit_reps_are_distinguishing_minima(p4):
    rep = brute_asym(p4)
    auts = list(enumerate_automorphisms(p4))
    for mask in rep.orbit_reps:
        images = {sum(1 << s[v] for v in range(p4.n) if mask >> v & 1) for s in auts}
        assert min(images) == mask


def test_regular_action_asserted():
    with pytest.raises(AssertionError, match="regular action violated"):
        OrbitReport(2, 4, distinguishing_count=3, orbit_count=1, aut_order=2, orbit_reps=())
    with pytest.raises(AssertionError, match=r"total colorings must be 2\^n"):
        OrbitReport(2, 3, distinguishing_count=2, orbit_count=1, aut_order=2, orbit_reps=())


def test_brute_motion_examples(p3, p4, asym7):
    assert brute_motion(p3) == Motion(2)
    assert brute_motion(p4) == Motion(4)
    assert brute_motion(asym7).is_asymmetric


def test_size_cap():
    big = Tree.from_edges(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(OracleSizeError):
        brute_asym(big)


@pytest.mark.parametrize("brute", [brute_asym, brute_motion], ids=["brute_asym", "brute_motion"])
def test_automorphism_limit_is_an_oracle_size_error(k14, brute):
    # K_{1,4} has 24 automorphisms
    past = Raised(OracleSizeError, "automorphism count exceeds limit 10", cause=AutomorphismLimitExceeded)
    assert outcome(brute, k14, aut_limit=10) == past
    assert brute(k14, aut_limit=24) is not None


def test_brute_graph_aut_examples(k1, p3):
    square = [(0, 1), (1, 2), (2, 3), (3, 0)]
    adj = [[] for _ in range(4)]
    for u, v in square:
        adj[u].append(v)
        adj[v].append(u)
    assert len(brute_graph_aut(adj)) == 8
    assert brute_graph_aut(k1.adj) == [(0,)]
    assert len(brute_graph_aut(p3.adj)) == 2


def test_brute_graph_aut_pinned_and_forced(p3):
    assert len(brute_graph_aut(p3.adj, pinned=0)) == 2
    assert len(brute_graph_aut(p3.adj, pinned=1)) == 1
    assert exists_automorphism(p3.adj, pinned=0, forced={1: 2})
    assert not exists_automorphism(p3.adj, forced={0: 1})


def test_graph_aut_size_cap():
    adj = [[j for j in range(13) if j != i] for i in range(13)]
    with pytest.raises(OracleSizeError):
        brute_graph_aut(adj)


# -- the shared backtracker against the vertex-by-vertex search it replaced --


SEARCH_ERRORS = (AutomorphismLimitExceeded, ValueError)  # what the searches raise, and the reference alike


def listed(*args, **kwargs):
    """The reference's automorphisms as one list, as ``brute_graph_aut`` returns them."""
    return list(reference_automorphisms(*args, **kwargs))


def seeded_graphs(count: int, seed: int):
    """Random connected graphs, n <= 12: a random tree plus 0-4 chords."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, 4)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        adj = [[] for _ in range(n)]
        for u, v in sorted(edges, key=lambda e: rng.random()):
            adj[u].append(v)
            adj[v].append(u)
        yield rng, adj


def test_backtracker_matches_reference_on_seeded_graphs_in_order():
    forced_maps = 0
    for rng, adj in seeded_graphs(400, seed=20261018):
        n = len(adj)
        # a limit keeps stars and other huge groups small; both sides must then raise alike
        ref = outcome(listed, adj, limit=5000, catch=SEARCH_ERRORS)
        assert outcome(brute_graph_aut, adj, limit=5000, catch=SEARCH_ERRORS) == ref
        for _ in range(3):
            pinned = rng.choice([None, rng.randrange(n)])
            if isinstance(ref, list) and len(ref) > 1 and rng.random() < 0.5:
                sigma = rng.choice(ref)  # forced images some automorphism honours
                forced = {v: sigma[v] for v in rng.sample(range(n), rng.randint(1, min(3, n)))}
            else:
                forced = {rng.randrange(n): rng.randrange(n) for _ in range(rng.randint(0, 2))}
            forced_maps += bool(forced)
            kwargs = dict(pinned=pinned, forced=forced, limit=5000)
            want = outcome(listed, adj, **kwargs, catch=SEARCH_ERRORS)
            assert outcome(brute_graph_aut, adj, **kwargs, catch=SEARCH_ERRORS) == want
            if isinstance(want, list):
                assert exists_automorphism(adj, pinned=pinned, forced=forced) == bool(want)
    assert forced_maps >= 300


def test_backtracker_limit_rules():
    square = [[1, 3], [0, 2], [1, 3], [2, 0]]
    for rng, adj in [(None, square), *seeded_graphs(60, seed=7)]:
        auts = outcome(listed, adj, limit=5000, catch=SEARCH_ERRORS)
        if not isinstance(auts, list):
            continue
        for limit in (0, len(auts) - 1):
            with pytest.raises(AutomorphismLimitExceeded):
                brute_graph_aut(adj, limit=limit)
        assert brute_graph_aut(adj, limit=len(auts)) == auts
    for t in trees_up_to(7):
        auts = listed(t.adj)
        for limit in (0, len(auts) - 1):
            with pytest.raises(AutomorphismLimitExceeded):
                list(enumerate_automorphisms(t, limit=limit))
        assert list(enumerate_automorphisms(t, limit=len(auts))) == auts


def test_exists_automorphism_cap_and_connectivity():
    k13 = [[j for j in range(13) if j != i] for i in range(13)]
    with pytest.raises(OracleSizeError):
        exists_automorphism(k13)
    with pytest.raises(ValueError, match="graph must be connected"):
        exists_automorphism([[1], [0], [3], [2]])


def graph_from_edges(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def shuffled(adj, rng):
    """The same graph with random vertex ids and neighbour order."""
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(len(adj)) for v in adj[u] if u < v]
    rng.shuffle(edges)
    return graph_from_edges(len(adj), edges)


def leafy_families(max_n: int):
    """Stars, double stars, caterpillars with 2-4 leaves per spine vertex and spiders with legs of length 1-2."""
    for n in range(1, max_n + 1):
        yield graph_from_edges(n, [(0, v) for v in range(1, n)])
    for a in range(1, max_n - 2):
        for b in range(a, max_n - 1 - a):
            edges = [(0, 1), *((0, 2 + i) for i in range(a)), *((1, 2 + a + i) for i in range(b))]
            yield graph_from_edges(a + b + 2, edges)
    for spine in (2, 3, 4):
        for counts in product(range(2, 5), repeat=spine):
            n = spine + sum(counts)
            if n <= max_n:
                legs = [s for s, c in enumerate(counts) for _ in range(c)]
                edges = [*((s, s + 1) for s in range(spine - 1)), *((s, spine + i) for i, s in enumerate(legs))]
                yield graph_from_edges(n, edges)
    for short in range(max_n):
        for long in range(max_n // 2):
            n = 1 + short + 2 * long
            if 2 <= short + long and n <= max_n:
                edges = [(0, 1 + i) for i in range(short)]
                for i in range(long):
                    mid = 1 + short + 2 * i
                    edges += [(0, mid), (mid, mid + 1)]
                yield graph_from_edges(n, edges)


def pendant_graphs(count: int, seed: int):
    """Random connected graphs, n <= 12: a random core with chords, then pendant leaves on a few core vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        core = rng.randint(1, 6)
        n = rng.randint(core, 12)
        edges = {(rng.randrange(v), v) for v in range(1, core)}
        for _ in range(rng.randint(0, 3)):
            u, v = rng.randrange(core), rng.randrange(core)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        hubs = rng.sample(range(core), rng.randint(1, min(3, core)))
        edges |= {(rng.choice(hubs), v) for v in range(core, n)}
        yield rng, shuffled(graph_from_edges(n, sorted(edges)), rng)


def test_leaf_blocks_match_vertex_search_on_all_trees_in_order():
    for t in trees_up_to(10):
        for pinned in [None, *range(t.n)]:
            ref = listed(t.adj, pinned=pinned)
            assert list(enumerate_automorphisms(t, pinned=pinned)) == ref, (t.edges(), pinned)


def test_backtracker_matches_references_on_all_trees_in_order():
    # the oracle's list wraps the same search as the tree enumeration, so smaller trees show the wrapper
    for t in trees_up_to(9):
        for pinned in [None, *range(t.n)]:
            assert brute_graph_aut(t.adj, pinned=pinned) == listed(t.adj, pinned=pinned), (t.edges(), pinned)


def test_graph_aut_matches_tree_enumeration():
    for t in trees_up_to(7):
        for pinned in [None, *range(t.n)]:
            assert set(brute_graph_aut(t.adj, pinned=pinned)) == set(enumerate_automorphisms(t, pinned=pinned))


def test_leaf_blocks_match_vertex_search_on_leafy_families():
    rng = random.Random(12)
    for adj in leafy_families(12):
        for g in (adj, shuffled(adj, rng)):
            for pinned in [None, *range(len(g))]:
                kwargs = dict(pinned=pinned, limit=800)  # the 12-vertex star alone has 11! automorphisms
                want = outcome(reference_automorphisms, g, **kwargs, catch=SEARCH_ERRORS)
                assert outcome(_automorphisms, g, **kwargs, catch=SEARCH_ERRORS) == want, (g, pinned)


def test_leaf_blocks_match_vertex_search_on_pendant_graphs():
    kinds = Counter()
    for rng, adj in pendant_graphs(2000, seed=20261019):
        n = len(adj)
        pinned = rng.choice([None, rng.randrange(n)])
        # past 9 vertices an impossible forced image can cost a search of 10! dead ends, on either side
        forced = {rng.randrange(n): rng.randrange(n)} if n <= 9 and rng.random() < 0.5 else None
        kwargs = dict(pinned=pinned, forced=forced, limit=rng.choice([0, 1, 5, 200]))
        want = outcome(reference_automorphisms, adj, **kwargs, catch=SEARCH_ERRORS)
        assert outcome(_automorphisms, adj, **kwargs, catch=SEARCH_ERRORS) == want, (adj, kwargs)
        kinds[type(want).__name__] += 1
    assert kinds["list"] >= 500 and kinds["Raised"] >= 500


# a 5-leaf block in a star, after a 2-leaf swap in a double star, and at a triangle's corner, where the search also checks a back edge
BLOCK_GRAPHS = [
    graph_from_edges(6, [(0, v) for v in range(1, 6)]),
    graph_from_edges(9, [(0, 1), (0, 2), (0, 3), *((1, v) for v in range(4, 9))]),
    graph_from_edges(8, [(0, 1), (1, 2), (2, 0), *((0, v) for v in range(3, 8))]),
]


@pytest.mark.parametrize("adj", BLOCK_GRAPHS, ids=["star6", "double-star", "triangle"])
def test_leaf_block_limits_match_vertex_search(adj):
    # 5! = 120 images of the block: the limit falls inside it, at its edge and past it
    for pinned in [None, *range(len(adj))]:
        for limit in (0, 1, 5, 23, 119, 120, 121, None):
            kwargs = dict(pinned=pinned, limit=limit, catch=SEARCH_ERRORS)
            want = outcome(reference_automorphisms, adj, **kwargs)
            assert outcome(_automorphisms, adj, **kwargs) == want, (pinned, limit)


@pytest.mark.parametrize("adj", BLOCK_GRAPHS, ids=["star6", "double-star", "triangle"])
def test_forced_leaf_inside_a_block_matches_vertex_search(adj):
    n = len(adj)
    leaves = [v for v in range(n) if len(adj[v]) == 1]
    hits = Counter()
    for v in leaves:
        for y in range(n):
            for forced in ({v: y}, {v: y, leaves[-1]: leaves[0]}):
                for pinned in (None, leaves[0], v):
                    kwargs = dict(pinned=pinned, forced=forced, catch=SEARCH_ERRORS)
                    want = outcome(reference_automorphisms, adj, **kwargs)
                    assert outcome(_automorphisms, adj, **kwargs) == want, (forced, pinned)
                    assert exists_automorphism(adj, pinned=pinned, forced=forced) == bool(want)
                    hits[bool(want)] += 1
    assert hits[True] and hits[False]  # honoured and impossible forced images both occur


@pytest.fixture
def candidate_lists(monkeypatch) -> list[tuple[str, tuple]]:
    """Every candidate list the automorphism search builds, as a ``permutations`` call, while the test runs."""
    return recorded(monkeypatch, (autom_module, "permutations"))


def test_leaf_blocks_bound_the_candidate_lists(candidate_lists):
    # the vertex-by-vertex search built 69,282 lists on the 9-vertex star and 105 on the caterpillar
    assert sum(1 for _ in enumerate_automorphisms(star(9))) == 40320
    assert len(candidate_lists) <= 2
    candidate_lists.clear()
    spine = [(0, 1), (1, 2), (2, 3)]
    caterpillar = Tree.from_edges(12, [*spine, *((s, 4 + 2 * s + i) for s in range(4) for i in range(2))])
    assert sum(1 for _ in enumerate_automorphisms(caterpillar)) == 32
    assert len(candidate_lists) <= 45


def forced_maps(n: int, rng: random.Random, sigma):
    """Forced images: honoured by the automorphism ``sigma``, random, clashing, and with keys or images out of range."""
    v, u = rng.randrange(n), rng.randrange(n)
    return [
        {v: sigma[v], u: sigma[u]},
        {v: rng.randrange(n)},
        {v: rng.randrange(n), u: rng.randrange(n)},
        {v: sigma[v], u: sigma[v]},  # one image for two vertices when u != v
        {v: rng.choice([n, -1])},
        {n: 0, -1: v, v: sigma[v]},  # keys out of range are ignored
    ]


def assert_forced_maps_match_vertex_search(adj, rng, kinds):
    n = len(adj)
    sigmas = outcome(reference_automorphisms, adj, limit=200, catch=SEARCH_ERRORS)
    sigmas = sigmas if isinstance(sigmas, list) else sigmas.yielded
    for forced in forced_maps(n, rng, rng.choice(sigmas)):
        w = rng.randrange(n)
        for pinned in (None, w, *forced.keys()):
            if pinned is not None and not 0 <= pinned < n:
                continue
            kwargs = dict(pinned=pinned, forced=forced, limit=rng.choice([0, 1, 5, 200]))
            want = outcome(reference_automorphisms, adj, **kwargs, catch=SEARCH_ERRORS)
            assert outcome(_automorphisms, adj, **kwargs, catch=SEARCH_ERRORS) == want, (adj, kwargs)
            if isinstance(want, list):
                assert exists_automorphism(adj, pinned=pinned, forced=forced) == bool(want)
            kinds[type(want).__name__, bool(want.yielded if isinstance(want, Raised) else want)] += 1


def test_forced_maps_match_vertex_search_on_all_trees_in_order():
    rng = random.Random(23)
    kinds = Counter()
    for t in trees_up_to(10):
        assert_forced_maps_match_vertex_search(t.adj, rng, kinds)
    # empty and nonempty results, and limit raises after none and after some automorphisms
    assert min(kinds.values()) >= 100 and len(kinds) == 4, kinds


def test_forced_maps_match_vertex_search_on_seeded_graphs_in_order():
    kinds = Counter()
    for rng, adj in seeded_graphs(1000, seed=20261020):
        # the reference spends 57 s on an impossible forced image in the 12-vertex star, so its impossible maps stop at 10
        if len(adj) <= 10:
            assert_forced_maps_match_vertex_search(adj, rng, kinds)
    assert min(kinds.values()) >= 50 and len(kinds) == 4, kinds


def test_forced_images_prune_the_star_search(candidate_lists):
    # the leaf block tried every arrangement of 9 of the 10 leaves before the one forced leaf, so 362,880 or
    # more candidate lists; the first forced image cannot be honoured, the second can
    star11 = star(11).adj
    assert not exists_automorphism(star11, pinned=1, forced={10: 0})
    assert candidate_lists == []
    assert exists_automorphism(star11, forced={10: 1})
    assert len(candidate_lists) <= 3


def test_clashing_forced_images_build_no_candidate_list(candidate_lists):
    # two leaves forced to one image: no automorphism honours that, and the clash is rejected before the
    # search; a search that only finds it there builds 6 candidate lists first
    star11 = star(11).adj
    assert exists_automorphism(star11, forced={1: 5, 2: 5}) is False
    assert brute_graph_aut(star11, forced={1: 5, 2: 5}) == []
    assert candidate_lists == []


def test_oracle_matches_reference_on_all_small_trees_at_every_pin():
    for t in trees_up_to(8):
        assert brute_motion(t) == reference_brute_motion(t)
        for pinned in [None, *range(t.n)]:
            got, want = brute_asym(t, pinned=pinned), reference_brute_asym(t, pinned=pinned)
            assert dataclasses.astuple(got) == dataclasses.astuple(want), (t.edges(), pinned)


def test_oracle_budget_matches_reference_on_stars_and_paths():
    raised = set()
    for t in [*(star(n) for n in (1, 2, 3, 4, 5, 17)), *(path(n) for n in (1, 2, 3, 6, 17))]:
        for aut_limit in (1, 2, 5, 23):
            want = outcome(reference_brute_motion, t, aut_limit=aut_limit)
            assert outcome(brute_motion, t, aut_limit=aut_limit) == want
            for pinned in (None, 0, t.n - 1, t.n):
                want = outcome(reference_brute_asym, t, pinned=pinned, aut_limit=aut_limit)
                assert outcome(brute_asym, t, pinned=pinned, aut_limit=aut_limit) == want
                if isinstance(want, Raised):
                    raised.add(want)
    # the budget at each limit, the size cap (checked first, so also past the budget) and an out-of-range pin
    assert {r.message for r in raised} >= {
        "automorphism count exceeds limit 1", "automorphism count exceeds limit 2",
        "automorphism count exceeds limit 5", "automorphism count exceeds limit 23",
        "n = 17 exceeds oracle cap 16", "root 5 out of range 0..4",
    }
    assert Raised(OracleSizeError, "automorphism count exceeds limit 23", cause=AutomorphismLimitExceeded) in raised


@pytest.fixture
def images_listed(monkeypatch) -> list[tuple[int, ...]]:
    """Every image the oracle's searches yield while the test runs."""
    listed: list[tuple[int, ...]] = []

    def counted(search):
        def wrapper(*args, **kwargs):
            for sigma in search(*args, **kwargs):
                listed.append(sigma)
                yield sigma
        return wrapper

    monkeypatch.setattr(oracle_module, "enumerate_automorphisms", counted(enumerate_automorphisms))
    monkeypatch.setattr(oracle_module, "_automorphisms", counted(_automorphisms))
    return listed


@pytest.mark.parametrize("pinned", [None, 0, 1], ids=["no-pin", "center-pin", "leaf-pin"])
def test_sibling_leaves_past_the_budget_are_refused_at_once(images_listed, pinned):
    # the 12-vertex star has 11! automorphisms, 10! with a leaf pinned: past both budgets, so
    # each call takes the identity and refuses, where it listed 2,000,001 or 500,001 images
    star12 = star(12)
    budget = Raised(OracleSizeError, "automorphism count exceeds limit 2000000", cause=AutomorphismLimitExceeded)
    calls = [
        (lambda: outcome(brute_asym, star12, pinned=pinned), budget),
        (lambda: outcome(brute_graph_aut, star12.adj, pinned=pinned, catch=SEARCH_ERRORS),
         Raised(AutomorphismLimitExceeded, "automorphism count exceeds limit 500000", (("limit", 500000),))),
    ]
    if pinned is None:
        calls.append((lambda: outcome(brute_motion, star12), budget))
    for call, want in calls:
        images_listed.clear()
        assert call() == want
        assert len(images_listed) <= 1


def test_refusal_keeps_the_order_of_errors():
    star12 = star(12)
    # a pin out of range and a disconnected graph still raise their own errors
    pin = Raised(ValueError, "root 12 out of range 0..11")
    assert outcome(brute_asym, star12, pinned=12) == pin
    assert outcome(brute_graph_aut, star12.adj, pinned=12, catch=SEARCH_ERRORS) == pin
    star11_and_a_vertex = (*star(11).adj, ())
    assert outcome(brute_graph_aut, star11_and_a_vertex, catch=SEARCH_ERRORS) == Raised(ValueError, "graph must be connected")
    # forced images form no group, so they are listed as before; the search itself still lists up to the limit
    kwargs = dict(forced={1: 2}, limit=100, catch=SEARCH_ERRORS)
    assert outcome(brute_graph_aut, star12.adj, **kwargs) == outcome(listed, star12.adj, **kwargs)
    got = outcome(enumerate_automorphisms, star12, limit=10, catch=SEARCH_ERRORS)
    limit10 = Raised(AutomorphismLimitExceeded, "automorphism count exceeds limit 10", (("limit", 10),))
    assert got[:4] == limit10[:4] and len(got.yielded) == 10


def test_direct_permutation_reads_match_image_tables():
    # the moved points that the census and brute_motion read, against image tables. The 8- and 9-vertex stars
    # are the big-group trees of corpus --check; the rest are small
    trees = [star(8), star(9), *trees_up_to(6)]
    rng = random.Random(5)
    for t in trees:
        for sigma in enumerate_automorphisms(t):
            support, pairs = oracle_module._moved_points(sigma)
            assert len(pairs) == _reference_moved(sigma) and support == sum(1 << i for i in range(t.n) if sigma[i] != i)
            tbl = _mask_images(sigma)
            for mask in [0, (1 << t.n) - 1, *(rng.getrandbits(t.n) for _ in range(8))]:
                # the census's read: the moved part's image, with every point off the support where it was
                got = sum(to for bit, to in pairs if mask & bit) | (mask & ~support)
                assert got == _apply_table(tbl, mask), (t.edges(), sigma, mask)


def pruefer_trees(sizes, seed: int) -> list[Tree]:
    rng = random.Random(seed)
    return [random_tree(rng, n) for n in sizes]


def test_census_matches_sorted_scan_on_seeded_trees_and_big_groups():
    seeded = pruefer_trees([n for n in range(11, 15) for _ in range(3)], seed=39)
    cases = [(t, pinned) for t in seeded for pinned in (None, 0, t.n - 1)]
    for t, pinned in cases + [(t, None) for t in (star(9), star(10), kary_tree(15, 2), spider(13, 4))]:
        got, want = brute_asym(t, pinned=pinned), reference_brute_asym(t, pinned=pinned)
        assert dataclasses.astuple(got) == dataclasses.astuple(want), (t.edges(), pinned)


@pytest.mark.parametrize("where", ["last", "middle"])
def test_the_identity_is_dropped_wherever_the_stream_lists_it(monkeypatch, where):
    # the backtracker lists the identity first; the census must drop it by what it is (it moves nothing), or a
    # coloring read against it is fixed, every census reads 0 and 0 = 0 * |Aut| passes the regular-action check
    trees = [*trees_up_to(7), kary_tree(15, 2), spider(13, 4), *pruefer_trees([11, 12], seed=7)]
    cases = [(t, pinned) for t in trees for pinned in ([None, *range(t.n)] if t.n <= 7 else [None, 0])]
    wants = [reference_brute_asym(t, pinned=pinned) for t, pinned in cases]
    positions = []

    def reordered(t, aut_limit, pinned=None):
        auts = list(_budgeted_automorphisms(t, aut_limit, pinned))
        identity = auts.pop(auts.index(tuple(range(t.n))))
        positions.append(len(auts) if where == "last" else (len(auts) + 1) // 2)
        auts.insert(positions[-1], identity)
        return iter(auts)

    monkeypatch.setattr(oracle_module, "_budgeted_automorphisms", reordered)
    for (t, pinned), want in zip(cases, wants):
        assert dataclasses.astuple(brute_asym(t, pinned=pinned)) == dataclasses.astuple(want), (t.edges(), pinned)
    # every census read the reordered stream, and in most of them the identity was not first
    assert len(positions) == len(cases) and sum(map(bool, positions)) > len(cases) // 2


def test_census_builds_the_moved_points_of_five_star_automorphisms(monkeypatch):
    # the 9-vertex star's 40,319 non-identity automorphisms, in the backtracker's order: the swaps of its last
    # three leaves come first, and 5 of them fix every coloring; a sort by moved count reads all 40,320
    built = recorded(monkeypatch, (oracle_module, "_moved_points"))
    report = brute_asym(star(9))
    assert (report.aut_order, report.distinguishing_count) == (40_320, 0)
    assert 1 <= len([sigma for _, (sigma,) in built if sigma != tuple(range(9))]) <= 5
    assert len(built) == len(set(built))



def test_census_keeps_no_automorphism_it_never_reads():
    # the 9-vertex star's 40,320 automorphisms are counted as the search lists them: the census reads 5, and
    # keeping the list of all of them peaked at 4.65 MiB
    brute_asym(star(9))
    report, peak = traced(lambda: brute_asym(star(9)))
    assert (report.aut_order, report.distinguishing_count) == (40_320, 0)
    assert peak <= 0.5 * 2**20, peak


def test_a_census_that_stops_reading_still_refuses_past_the_budget(images_listed, monkeypatch):
    # a center with 3 leaves and two claws of 3 leaves: 432 automorphisms, of which sibling leaves alone make 216,
    # so a budget of 431 is not refused at once. The scan reads 6 of them, as every coloring is fixed by one; the
    # rest are still listed, counted and refused past the budget
    claws = [(0, 4), (4, 5), (4, 6), (4, 7), (0, 8), (8, 9), (8, 10), (8, 11)]
    t = Tree.from_edges(12, [(0, 1), (0, 2), (0, 3), *claws])
    built = recorded(monkeypatch, (oracle_module, "_moved_points"))
    want = reference_brute_asym(t)
    images_listed.clear()
    assert brute_asym(t, aut_limit=432) == want and want.aut_order == 432
    assert len(images_listed) == 432 and len(built) == 6
    images_listed.clear()
    budget = Raised(OracleSizeError, "automorphism count exceeds limit 431", cause=AutomorphismLimitExceeded)
    assert outcome(brute_asym, t, aut_limit=431) == budget and len(images_listed) == 431
