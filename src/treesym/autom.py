"""Automorphism group order, motion, and exhaustive automorphism enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from itertools import permutations
from math import factorial

from .canon import TreeAnalysis, _at_root, _center_runs
from .trees import RootedTree, Tree, _bfs, _check_root


@total_ordering
@dataclass(frozen=True)
class Motion:
    """Minimum number of vertices moved by a non-identity automorphism.

    ``moved is None`` encodes the asymmetric case (identity-only group),
    which by convention compares greater than every finite value, so
    ``m >= threshold`` style checks hold vacuously for asymmetric trees.
    """

    moved: int | None = None

    def __post_init__(self):
        if self.moved is not None:
            if self.moved < 2:
                raise ValueError("a non-identity tree automorphism moves at least 2 vertices")
            if self.moved % 2 != 0:
                raise ValueError("tree motion must be even")

    @property
    def is_asymmetric(self) -> bool:
        return self.moved is None

    def __lt__(self, other: "Motion") -> bool:
        if self.moved is None:
            return False
        if other.moved is None:
            return True
        return self.moved < other.moved

    def to_json(self):
        return "asymmetric" if self.moved is None else self.moved


ASYMMETRIC = Motion(None)


def _aut_product(vals: list[int], runs, drop: int = -1) -> int:
    """prod mu! * |Aut(k)|^mu over (class k, multiplicity mu) runs, less one branch of class ``drop`` (-1: none)."""
    acc = 1
    for k, mu in runs:
        mu -= k == drop
        acc *= vals[k] if mu == 1 else factorial(mu) * vals[k] ** mu  # 1! * v^1 = v
    return acc


def aut_by_class(an: TreeAnalysis) -> list[int]:
    """|Aut| of every class's rooted subtree by the twin-class product: prod mu! * |Aut(rep)|^mu."""
    vals: list[int] = []
    for sig in an.sigs:
        vals.append(_aut_product(vals, sig))
    return vals


def aut_order_of(an: TreeAnalysis) -> int:
    """|Aut| of the analysed tree: the twin-class product over the center's branches."""
    return _aut_product(aut_by_class(an), _center_runs(an))


def aut_order_rooted(rt: RootedTree) -> int:
    """|Aut(T,w)| by the twin-class product, from the tree's center analysis: one product along the path to the center."""
    an = TreeAnalysis.at_center(rt.tree)
    return _at_root(an, aut_by_class(an), _aut_product, rt.root)


def aut_order(t: Tree) -> int:
    """Exact |Aut(T)| for the unrooted tree."""
    return aut_order_of(TreeAnalysis.at_center(t))


def motion_of(an: TreeAnalysis) -> Motion:
    """Motion from the twin structure of a center analysis.

    Every non-identity automorphism either fixes the center pointwise, in
    which case it moves at least 2 * |T^x| vertices for some twin pair at x
    (and the bare twin swap achieves exactly that), or it swaps the two
    halves of an edge center, moving all n vertices. The minimum over these
    candidates is therefore the motion, and with no candidate the group is
    trivial; the oracle suite cross-checks this closed form exhaustively.
    """
    # a class with twins first occurs below the root (isomorphic halves at the cut child), where sizes are the halves'
    size = an.rt.subtree_size
    candidates = [2 * size[an.reps[k]] for sig in (*an.sigs, _center_runs(an)) for k, mu in sig if mu >= 2]
    return Motion(min(candidates)) if candidates else ASYMMETRIC


def motion(t: Tree) -> Motion:
    """Motion m(T): the fewest vertices a non-identity automorphism moves."""
    return motion_of(TreeAnalysis.at_center(t))


class AutomorphismLimitExceeded(RuntimeError):
    """The enumeration would yield more automorphisms than the caller allowed."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"automorphism count exceeds limit {limit}")


def _automorphisms(adj, limit: int | None = None, pinned: int | None = None, forced=None):
    """Yield every automorphism of a connected simple graph exactly once as an image tuple.

    Plain backtracking over a BFS vertex order from ``pinned`` (else 0). A
    candidate image is unused, has the vertex's degree, is adjacent to the
    image of its BFS parent, honours ``forced`` (vertex -> image; keys out of
    range are ignored, ``pinned`` maps to itself over it), is no other
    vertex's forced image and is adjacent to the images of the vertex's other
    earlier neighbours; a tree has none, so it checks each edge exactly once.
    Forced images that clash, or are out of range or of another degree, yield
    nothing at once. A run of consecutive sibling leaves with no forced image
    is one level: its members share one candidate list, so the level takes
    their images as one permutation of it, in the order the vertex-by-vertex
    search would visit them. Raises AutomorphismLimitExceeded before yielding
    past ``limit``.
    """
    n = len(adj)
    if pinned is not None:
        _check_root(n, pinned)
    order, par = _bfs(adj, pinned if pinned is not None else 0)
    if len(order) != n:
        raise ValueError("graph must be connected")
    want = {v: y for v, y in (forced or {}).items() if 0 <= v < n}
    if pinned is not None:
        want[pinned] = pinned
    deg = [len(a) for a in adj]
    if len(set(want.values())) < len(want) or any(not 0 <= y < n or deg[y] != deg[v] for v, y in want.items()):
        return
    reserved = {y for v, y in want.items() if v != pinned}
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    back = [[z for z in adj[v] if pos[z] < pos[v] and z != par[v]] for v in range(n)]
    adjsets = [set(a) for a in adj] if any(back) else None
    levels = [[order[0]]]
    for v in order[1:]:
        u = levels[-1][0]
        if deg[u] == deg[v] == 1 and par[u] == par[v] and u not in want and v not in want:
            levels[-1].append(v)
        else:
            levels.append([v])
    mapping = [-1] * n
    used = [False] * n

    def candidates(level: list[int]):
        v = level[0]
        pool = range(n) if par[v] < 0 else adj[mapping[par[v]]]
        dv = deg[v]
        out = [y for y in pool if not used[y] and deg[y] == dv]
        if v in want:
            out = [y for y in out if y == want[v]]
        elif reserved:
            out = [y for y in out if y not in reserved]
        if back[v]:
            out = [y for y in out if all(mapping[z] in adjsets[y] for z in back[v])]
        return permutations(out, len(level))

    count = 0
    last = len(levels) - 1
    stack = [candidates(levels[0])]
    while stack:
        k = len(stack) - 1
        level = levels[k]
        for images in stack[-1]:
            for v, y in zip(level, images):
                mapping[v] = y
            if k == last:
                count += 1
                if limit is not None and count > limit:
                    raise AutomorphismLimitExceeded(limit)
                yield tuple(mapping)
                continue
            for y in images:
                used[y] = True
            stack.append(candidates(levels[k + 1]))
            break
        else:
            stack.pop()
            if k:
                for v in levels[k - 1]:
                    used[mapping[v]] = False


def enumerate_automorphisms(t: Tree, limit: int | None = None, pinned: int | None = None):
    """Yield every automorphism of T exactly once as an image tuple.

    With ``pinned`` only automorphisms fixing that vertex are produced.
    Raises AutomorphismLimitExceeded before yielding past ``limit``.
    """
    yield from _automorphisms(t.adj, limit=limit, pinned=pinned)
