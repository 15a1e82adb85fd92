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
    root_at,
)
from treesym import autom as autom_module
from treesym import oracle as oracle_module
from treesym.autom import ASYMMETRIC, _automorphisms
from treesym.oracle import DEFAULT_AUT_LIMIT, MAX_ORACLE_VERTICES, OrbitReport, _apply, _moved
from treesym.trees import _bfs, _check_root

from .conftest import path, star, trees_up_to


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
    with pytest.raises(OracleSizeError, match="^automorphism count exceeds limit 10$") as exc:
        brute(k14, aut_limit=10)
    assert isinstance(exc.value.__cause__, AutomorphismLimitExceeded)
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


def test_graph_aut_matches_tree_enumeration():
    for t in trees_up_to(7):
        assert set(brute_graph_aut(t.adj)) == set(enumerate_automorphisms(t))
        for w in range(t.n):
            assert set(brute_graph_aut(t.adj, pinned=w)) == set(
                enumerate_automorphisms(t, pinned=w)
            )


def test_graph_aut_size_cap():
    adj = [[j for j in range(13) if j != i] for i in range(13)]
    with pytest.raises(OracleSizeError):
        brute_graph_aut(adj)


# -- the two searches that the shared backtracker replaced, kept as references --


def reference_enumerate_automorphisms(t: Tree, limit=None, pinned=None):
    n = t.n
    adj = t.adj
    deg = [len(a) for a in adj]
    start = pinned if pinned is not None else 0
    rt = root_at(t, start)
    order = rt.bfs_order
    par = rt.parent

    mapping = [-1] * n
    used = [False] * n
    if pinned is not None:
        first = [pinned]
    else:
        first = [v for v in range(n) if deg[v] == deg[start]]

    def candidates(k):
        v = order[k]
        if k == 0:
            return first
        img_parent = mapping[par[v]]
        dv = deg[v]
        return [y for y in adj[img_parent] if not used[y] and deg[y] == dv]

    count = 0
    stack = [(0, iter(candidates(0)))]
    while stack:
        k, it = stack[-1]
        v = order[k]
        advanced = False
        for y in it:
            mapping[v] = y
            used[y] = True
            if k + 1 == n:
                count += 1
                if limit is not None and count > limit:
                    raise AutomorphismLimitExceeded(limit)
                yield tuple(mapping)
                used[y] = False
                mapping[v] = -1
                continue
            stack.append((k + 1, iter(candidates(k + 1))))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if stack:
                pk, _ = stack[-1]
                pv = order[pk]
                used[mapping[pv]] = False
                mapping[pv] = -1


def reference_brute_graph_aut(adj, pinned=None, limit=500_000, forced=None):
    n = len(adj)
    if n > 12:
        raise OracleSizeError(f"n = {n} exceeds graph automorphism cap 12")
    adjsets = [set(a) for a in adj]
    deg = [len(a) for a in adj]
    start = pinned if pinned is not None else 0
    order, par = [start], [-1] * n
    seen = [False] * n
    seen[start] = True
    for u in order:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                par[v] = u
                order.append(v)
    if len(order) != n:
        raise ValueError("graph must be connected")
    forced = dict(forced or {})
    if pinned is not None:
        forced[pinned] = pinned

    mapping = [-1] * n
    used = [False] * n
    out = []

    def consistent(v, y):
        if deg[y] != deg[v]:
            return False
        want = forced.get(v)
        if want is not None and want != y:
            return False
        for z in adj[v]:
            mz = mapping[z]
            if mz >= 0 and mz not in adjsets[y]:
                return False
        return True

    def rec(k):
        if k == n:
            out.append(tuple(mapping))
            if len(out) > limit:
                raise AutomorphismLimitExceeded(limit)
            return
        v = order[k]
        pool = range(n) if k == 0 else adj[mapping[par[v]]]
        for y in pool:
            if not used[y] and consistent(v, y):
                mapping[v] = y
                used[y] = True
                rec(k + 1)
                used[y] = False
                mapping[v] = -1

    rec(0)
    return out


def outcome(search, *args, **kwargs):
    """The ordered result of a search, or the type and message of what it raised and what it yielded before."""
    got = []
    try:
        for sigma in search(*args, **kwargs):
            got.append(sigma)
    except (AutomorphismLimitExceeded, ValueError) as exc:
        return (type(exc).__name__, str(exc), got)
    return got


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


def test_backtracker_matches_references_on_all_trees_in_order():
    for t in trees_up_to(9):
        for pinned in [None, *range(t.n)]:
            ref = list(reference_enumerate_automorphisms(t, pinned=pinned))
            assert list(enumerate_automorphisms(t, pinned=pinned)) == ref
            assert brute_graph_aut(t.adj, pinned=pinned) == reference_brute_graph_aut(t.adj, pinned=pinned)


def test_backtracker_matches_reference_on_seeded_graphs_in_order():
    forced_maps = 0
    for rng, adj in seeded_graphs(400, seed=20261018):
        n = len(adj)
        # a limit keeps stars and other huge groups small; both sides must then raise alike
        ref = outcome(reference_brute_graph_aut, adj, limit=5000)
        assert outcome(brute_graph_aut, adj, limit=5000) == ref
        for _ in range(3):
            pinned = rng.choice([None, rng.randrange(n)])
            if isinstance(ref, list) and len(ref) > 1 and rng.random() < 0.5:
                sigma = rng.choice(ref)  # forced images some automorphism honours
                forced = {v: sigma[v] for v in rng.sample(range(n), rng.randint(1, min(3, n)))}
            else:
                forced = {rng.randrange(n): rng.randrange(n) for _ in range(rng.randint(0, 2))}
            forced_maps += bool(forced)
            kwargs = dict(pinned=pinned, forced=forced, limit=5000)
            want = outcome(reference_brute_graph_aut, adj, **kwargs)
            assert outcome(brute_graph_aut, adj, **kwargs) == want
            if isinstance(want, list):
                assert exists_automorphism(adj, pinned=pinned, forced=forced) == bool(want)
    assert forced_maps >= 300


def test_backtracker_limit_rules():
    square = [[1, 3], [0, 2], [1, 3], [2, 0]]
    for rng, adj in [(None, square), *seeded_graphs(60, seed=7)]:
        auts = outcome(reference_brute_graph_aut, adj, limit=5000)
        if not isinstance(auts, list):
            continue
        for limit in (0, len(auts) - 1):
            with pytest.raises(AutomorphismLimitExceeded):
                brute_graph_aut(adj, limit=limit)
        assert brute_graph_aut(adj, limit=len(auts)) == auts
    for t in trees_up_to(7):
        auts = list(reference_enumerate_automorphisms(t))
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


# -- the vertex-by-vertex backtracker that leaf blocks replaced, kept as a third reference --


def reference_vertex_automorphisms(adj, limit=None, pinned=None, forced=None):
    """``autom._automorphisms`` as it was before sibling leaves took their images as one permutation.

    One search level per BFS position, and one candidate list per search node.
    """
    n = len(adj)
    if pinned is not None:
        _check_root(n, pinned)
    order, par = _bfs(adj, pinned if pinned is not None else 0)
    if len(order) != n:
        raise ValueError("graph must be connected")
    want = dict(forced or {})
    if pinned is not None:
        want[pinned] = pinned
    deg = [len(a) for a in adj]
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    back = [[z for z in adj[v] if pos[z] < pos[v] and z != par[v]] for v in range(n)]
    adjsets = [set(a) for a in adj] if any(back) else None
    mapping = [-1] * n
    used = [False] * n

    def candidates(k):
        v = order[k]
        pool = range(n) if k == 0 else adj[mapping[par[v]]]
        dv = deg[v]
        out = [y for y in pool if not used[y] and deg[y] == dv]
        if v in want:
            out = [y for y in out if y == want[v]]
        if back[v]:
            out = [y for y in out if all(mapping[z] in adjsets[y] for z in back[v])]
        return out

    count = 0
    stack = [iter(candidates(0))]
    while stack:
        k = len(stack) - 1
        v = order[k]
        for y in stack[-1]:
            mapping[v] = y
            if k + 1 == n:
                count += 1
                if limit is not None and count > limit:
                    raise AutomorphismLimitExceeded(limit)
                yield tuple(mapping)
                continue
            used[y] = True
            stack.append(iter(candidates(k + 1)))
            break
        else:
            stack.pop()
            if k:
                used[mapping[order[k - 1]]] = False


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
            assert list(enumerate_automorphisms(t, pinned=pinned)) == list(
                reference_vertex_automorphisms(t.adj, pinned=pinned)
            ), (t.edges(), pinned)


def test_leaf_blocks_match_vertex_search_on_leafy_families():
    rng = random.Random(12)
    for adj in leafy_families(12):
        for g in (adj, shuffled(adj, rng)):
            for pinned in [None, *range(len(g))]:
                kwargs = dict(pinned=pinned, limit=800)  # the 12-vertex star alone has 11! automorphisms
                want = outcome(reference_vertex_automorphisms, g, **kwargs)
                assert outcome(_automorphisms, g, **kwargs) == want, (g, pinned)


def test_leaf_blocks_match_vertex_search_on_pendant_graphs():
    kinds = Counter()
    for rng, adj in pendant_graphs(2000, seed=20261019):
        n = len(adj)
        pinned = rng.choice([None, rng.randrange(n)])
        # past 9 vertices an impossible forced image can cost a search of 10! dead ends, on either side
        forced = {rng.randrange(n): rng.randrange(n)} if n <= 9 and rng.random() < 0.5 else None
        kwargs = dict(pinned=pinned, forced=forced, limit=rng.choice([0, 1, 5, 200]))
        want = outcome(reference_vertex_automorphisms, adj, **kwargs)
        assert outcome(_automorphisms, adj, **kwargs) == want, (adj, kwargs)
        kinds[type(want).__name__] += 1
    assert kinds["list"] >= 500 and kinds["tuple"] >= 500


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
            want = outcome(reference_vertex_automorphisms, adj, pinned=pinned, limit=limit)
            assert outcome(_automorphisms, adj, pinned=pinned, limit=limit) == want, (pinned, limit)


@pytest.mark.parametrize("adj", BLOCK_GRAPHS, ids=["star6", "double-star", "triangle"])
def test_forced_leaf_inside_a_block_matches_vertex_search(adj):
    n = len(adj)
    leaves = [v for v in range(n) if len(adj[v]) == 1]
    hits = Counter()
    for v in leaves:
        for y in range(n):
            for forced in ({v: y}, {v: y, leaves[-1]: leaves[0]}):
                for pinned in (None, leaves[0], v):
                    want = outcome(reference_vertex_automorphisms, adj, pinned=pinned, forced=forced)
                    assert outcome(_automorphisms, adj, pinned=pinned, forced=forced) == want, (forced, pinned)
                    assert exists_automorphism(adj, pinned=pinned, forced=forced) == bool(want)
                    hits[bool(want)] += 1
    assert hits[True] and hits[False]  # honoured and impossible forced images both occur


@pytest.fixture
def candidate_lists(monkeypatch) -> list[int]:
    """The length of every candidate list the automorphism search builds while the test runs."""
    built: list[int] = []
    perms = autom_module.permutations
    monkeypatch.setattr(autom_module, "permutations", lambda out, r: built.append(len(out)) or perms(out, r))
    return built


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
    sigmas = outcome(reference_vertex_automorphisms, adj, limit=200)
    sigmas = sigmas if isinstance(sigmas, list) else sigmas[2]
    for forced in forced_maps(n, rng, rng.choice(sigmas)):
        w = rng.randrange(n)
        for pinned in (None, w, *forced.keys()):
            if pinned is not None and not 0 <= pinned < n:
                continue
            kwargs = dict(pinned=pinned, forced=forced, limit=rng.choice([0, 1, 5, 200]))
            want = outcome(reference_vertex_automorphisms, adj, **kwargs)
            assert outcome(_automorphisms, adj, **kwargs) == want, (adj, kwargs)
            if isinstance(want, list):
                assert exists_automorphism(adj, pinned=pinned, forced=forced) == bool(want)
            kinds[type(want).__name__, bool(want[2] if isinstance(want, tuple) else want)] += 1


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


def _reference_moved(sigma):
    return sum(1 for i, y in enumerate(sigma) if i != y)


def _mask_images(sigma):
    return [1 << y for y in sigma]


def _apply_table(tbl, mask):
    out = 0
    while mask:
        low = mask & -mask
        out |= tbl[low.bit_length() - 1]
        mask ^= low
    return out


def reference_brute_asym(t, pinned=None, aut_limit=DEFAULT_AUT_LIMIT):
    """brute_asym as it was written before the shared automorphism budget and the direct permutation reads.

    It has its own try around the list and keeps one image table per automorphism.
    """
    if t.n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"n = {t.n} exceeds oracle cap {MAX_ORACLE_VERTICES}")
    try:
        auts = list(enumerate_automorphisms(t, limit=aut_limit, pinned=pinned))
    except AutomorphismLimitExceeded as exc:
        raise OracleSizeError(str(exc)) from exc
    auts.sort(key=_reference_moved)
    tables = [_mask_images(s) for s in auts[1:]]
    dist_count = 0
    orbit_count = 0
    reps = []
    for mask in range(1 << t.n):
        fixed = False
        for tbl in tables:
            if _apply_table(tbl, mask) == mask:
                fixed = True
                break
        if fixed:
            continue
        dist_count += 1
        is_rep = True
        for tbl in tables:
            if _apply_table(tbl, mask) < mask:
                is_rep = False
                break
        if is_rep:
            orbit_count += 1
            reps.append(mask)
    return OrbitReport(
        n=t.n,
        total_colorings=1 << t.n,
        distinguishing_count=dist_count,
        orbit_count=orbit_count,
        aut_order=len(auts),
        orbit_reps=tuple(reps),
    )


def reference_two_scan_brute_asym(t, pinned=None, aut_limit=DEFAULT_AUT_LIMIT):
    """brute_asym as it was before one scan per mask: a second scan of every distinguishing mask for a smaller image."""
    if t.n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"n = {t.n} exceeds oracle cap {MAX_ORACLE_VERTICES}")
    try:
        auts = sorted(enumerate_automorphisms(t, limit=aut_limit, pinned=pinned), key=_moved)
    except AutomorphismLimitExceeded as exc:
        raise OracleSizeError(str(exc)) from exc
    others = auts[1:]
    dist_count = 0
    orbit_count = 0
    reps = []
    for mask in range(1 << t.n):
        fixed = False
        for sigma in others:
            if _apply(sigma, mask) == mask:
                fixed = True
                break
        if fixed:
            continue
        dist_count += 1
        is_rep = True
        for sigma in others:
            if _apply(sigma, mask) < mask:
                is_rep = False
                break
        if is_rep:
            orbit_count += 1
            reps.append(mask)
    return OrbitReport(t.n, 1 << t.n, dist_count, orbit_count, len(auts), tuple(reps))


def reference_brute_motion(t, aut_limit=DEFAULT_AUT_LIMIT):
    """brute_motion as it was written before the shared automorphism budget: its own try around the scan."""
    best = None
    try:
        for sigma in enumerate_automorphisms(t, limit=aut_limit):
            moved = _reference_moved(sigma)
            if moved and (best is None or moved < best):
                best = moved
    except AutomorphismLimitExceeded as exc:
        raise OracleSizeError(str(exc)) from exc
    return ASYMMETRIC if best is None else Motion(best)


def oracle_outcome(brute, *args, **kwargs):
    """The result, or the type, message and cause type of what was raised."""
    try:
        return brute(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc), type(exc.__cause__)


def test_oracle_matches_reference_on_all_small_trees_at_every_pin():
    for t in trees_up_to(8):
        assert brute_motion(t) == reference_brute_motion(t)
        for pinned in [None, *range(t.n)]:
            got, want = brute_asym(t, pinned=pinned), reference_brute_asym(t, pinned=pinned)
            assert dataclasses.astuple(got) == dataclasses.astuple(want), (t.edges(), pinned)


def test_one_scan_census_matches_two_scans_at_every_pin():
    for t in trees_up_to(10):
        for pinned in [None, *range(t.n)]:
            assert brute_asym(t, pinned=pinned) == reference_two_scan_brute_asym(t, pinned=pinned), (t.edges(), pinned)


def test_oracle_budget_matches_reference_on_stars_and_paths():
    raised = set()
    for t in [*(star(n) for n in (1, 2, 3, 4, 5, 17)), *(path(n) for n in (1, 2, 3, 6, 17))]:
        for aut_limit in (1, 2, 5, 23):
            want = oracle_outcome(reference_brute_motion, t, aut_limit=aut_limit)
            assert oracle_outcome(brute_motion, t, aut_limit=aut_limit) == want
            for pinned in (None, 0, t.n - 1, t.n):
                want = oracle_outcome(reference_brute_asym, t, pinned=pinned, aut_limit=aut_limit)
                assert oracle_outcome(brute_asym, t, pinned=pinned, aut_limit=aut_limit) == want
                if isinstance(want, tuple):
                    raised.add(want)
    # the budget at each limit, the size cap (checked first, so also past the budget) and an out-of-range pin
    assert {msg for _, msg, _ in raised} >= {
        "automorphism count exceeds limit 1", "automorphism count exceeds limit 2",
        "automorphism count exceeds limit 5", "automorphism count exceeds limit 23",
        "n = 17 exceeds oracle cap 16", "root 5 out of range 0..4",
    }
    assert (OracleSizeError, "automorphism count exceeds limit 23", AutomorphismLimitExceeded) in raised


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
    budget = (OracleSizeError, "automorphism count exceeds limit 2000000", AutomorphismLimitExceeded)
    calls = [
        (lambda: oracle_outcome(brute_asym, star12, pinned=pinned), budget),
        (lambda: outcome(brute_graph_aut, star12.adj, pinned=pinned),
         ("AutomorphismLimitExceeded", "automorphism count exceeds limit 500000", [])),
    ]
    if pinned is None:
        calls.append((lambda: oracle_outcome(brute_motion, star12), budget))
    for call, want in calls:
        images_listed.clear()
        assert call() == want
        assert len(images_listed) <= 1


def test_refusal_keeps_the_order_of_errors():
    star12 = star(12)
    # a pin out of range and a disconnected graph still raise their own errors
    assert oracle_outcome(brute_asym, star12, pinned=12) == (ValueError, "root 12 out of range 0..11", type(None))
    assert outcome(brute_graph_aut, star12.adj, pinned=12) == ("ValueError", "root 12 out of range 0..11", [])
    star11_and_a_vertex = (*star(11).adj, ())
    assert outcome(brute_graph_aut, star11_and_a_vertex) == ("ValueError", "graph must be connected", [])
    # forced images form no group, so they are listed as before; the search itself still lists up to the limit
    kwargs = dict(forced={1: 2}, limit=100)
    assert outcome(brute_graph_aut, star12.adj, **kwargs) == outcome(reference_brute_graph_aut, star12.adj, **kwargs)
    got = outcome(enumerate_automorphisms, star12, limit=10)
    assert got[:2] == ("AutomorphismLimitExceeded", "automorphism count exceeds limit 10") and len(got[2]) == 10


def test_direct_permutation_reads_match_image_tables():
    # the 8- and 9-vertex stars are the big-group trees of corpus --check; the rest are small
    trees = [star(8), star(9), *trees_up_to(6)]
    rng = random.Random(5)
    for t in trees:
        for sigma in enumerate_automorphisms(t):
            assert _moved(sigma) == _reference_moved(sigma)
            tbl = _mask_images(sigma)
            for mask in [0, (1 << t.n) - 1, *(rng.getrandbits(t.n) for _ in range(8))]:
                assert _apply(sigma, mask) == _apply_table(tbl, mask), (t.edges(), sigma, mask)
