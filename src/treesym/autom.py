"""Automorphism group order, motion, and exhaustive automorphism enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
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


def _aut_product(vals: list[int], sig) -> int:
    """prod mu! * |Aut(k)|^mu over (class k, multiplicity mu) pairs."""
    acc = 1
    for k, mu in sig:
        acc *= factorial(mu) * vals[k] ** mu
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

    Backtracks over a BFS vertex order from ``pinned`` (else 0). A candidate
    image is unused, has the vertex's degree, is adjacent to the image of its
    BFS parent, honours ``forced`` (vertex -> image) and is adjacent to the
    images of the vertex's other earlier neighbours; a tree has none, so it
    checks each edge exactly once. ``pinned`` forces that vertex to itself.
    Raises AutomorphismLimitExceeded before yielding past ``limit``.
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

    def candidates(k: int) -> list[int]:
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


def enumerate_automorphisms(t: Tree, limit: int | None = None, pinned: int | None = None):
    """Yield every automorphism of T exactly once as an image tuple.

    With ``pinned`` only automorphisms fixing that vertex are produced.
    Raises AutomorphismLimitExceeded before yielding past ``limit``.
    """
    yield from _automorphisms(t.adj, limit=limit, pinned=pinned)
