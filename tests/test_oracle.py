import dataclasses
import random

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
from treesym.autom import ASYMMETRIC
from treesym.oracle import DEFAULT_AUT_LIMIT, MAX_ORACLE_VERTICES, OrbitReport, _apply, _moved

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
    with pytest.raises(AssertionError):
        OrbitReport(2, 4, distinguishing_count=3, orbit_count=1, aut_order=2, orbit_reps=())


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
    """The ordered result of a search, or the type and message of what it raised."""
    try:
        return list(search(*args, **kwargs))
    except (AutomorphismLimitExceeded, ValueError) as exc:
        return (type(exc).__name__, str(exc))


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
