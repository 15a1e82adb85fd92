"""Correctness gate: the benchmark's own checks on treesym's outputs.

The distinguishing test and the colored canonical form here are written
independently of treesym (integer AHU class ids over plain adjacency
lists), so a defect in treesym's verifier cannot hide a defect in its
colorings. Nothing here is timed.
"""

from __future__ import annotations


def _rooted(adj, root: int, banned: int = -1):
    """BFS order and parent array of the component of ``root`` avoiding ``banned``."""
    parent = [-1] * len(adj)
    parent[root] = root
    if banned >= 0:
        parent[banned] = banned
    order = [root]
    for u in order:
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    return order, parent


def _colored_ids(adj, mask: int, root: int, intern: dict, banned: int = -1):
    """Colored class id of every vertex below ``root``; True if twins collide.

    Two children of one vertex with equal colored ids can be swapped by a
    color-preserving automorphism that fixes the root.
    """
    order, parent = _rooted(adj, root, banned)
    ids = [0] * len(adj)
    collision = False
    for u in reversed(order):
        kids = sorted(ids[w] for w in adj[u] if w != root and w != banned and parent[w] == u)
        if any(a == b for a, b in zip(kids, kids[1:])):
            collision = True
        ids[u] = intern.setdefault((mask >> u & 1, tuple(kids)), len(intern))
    return ids[root], collision


def centers(adj) -> list[int]:
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for u in layer:
            deg[u] = 0
            for w in adj[u]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def colored_form(adj, mask: int, intern: dict):
    """(canonical form, has a non-identity color-preserving automorphism).

    Forms computed with one shared ``intern`` table are equal iff the two
    colorings of the same tree are equivalent under Aut(T).
    """
    c = centers(adj)
    if len(c) == 1:
        root_id, collision = _colored_ids(adj, mask, c[0], intern)
        return (root_id,), collision
    u, v = c
    id_u, col_u = _colored_ids(adj, mask, u, intern, banned=v)
    id_v, col_v = _colored_ids(adj, mask, v, intern, banned=u)
    return tuple(sorted((id_u, id_v))), col_u or col_v or id_u == id_v


def is_distinguishing(adj, mask: int, pinned: int | None = None) -> bool:
    """No non-identity automorphism (fixing ``pinned`` when given) preserves the colors."""
    if pinned is not None:
        return not _colored_ids(adj, mask, pinned, {})[1]
    return not colored_form(adj, mask, {})[1]


def path_adjacency(n: int) -> list[list[int]]:
    return [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)]


def self_test() -> list[str]:
    """Hand-made cases the gate must get right; returns the ones it got wrong."""
    p6 = path_adjacency(6)
    wrong = []
    if is_distinguishing(p6, 0):
        wrong.append("all-white P6 accepted as distinguishing")
    if not is_distinguishing(p6, 0b000001):
        wrong.append("P6 with one end black rejected")
    if is_distinguishing(p6, 0b100001):
        wrong.append("P6 with both ends black accepted")
    if not is_distinguishing(p6, 0, pinned=0):
        wrong.append("all-white P6 pinned at an end rejected")
    intern: dict = {}
    if colored_form(p6, 0b000001, intern)[0] != colored_form(p6, 0b100000, intern)[0]:
        wrong.append("mirror colorings of P6 given different forms")
    return wrong
