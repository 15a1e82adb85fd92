"""Integer class ids for rooted subtrees, twin classes, and bytes encoders.

:class:`TreeAnalysis` interns one integer class id per vertex from the
sorted tuple of its children's ids (Aho, Hopcroft and Ullman 1974, §3.2), so
equal ids mean isomorphic rooted subtrees and siblings with equal ids are
exactly the twins. Ids are assigned bottom-up in order of first appearance,
and every vertex's twin classes are ordered by class id. That order is the
same at any two twins, which is what lets the unranking decode one digit the
same way on both.

The bytes encoders keep the classic balanced-parenthesis code: a leaf is
``()`` and an internal vertex wraps the lexicographically sorted codes of its
children. Codes are interned per call so equal codes share one bytes object.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .trees import Coloring, RootedTree, Tree, _center_ends, _check_root, center, root_at

CanonCode = bytes


def subtree_codes(rt: RootedTree) -> tuple[bytes, ...]:
    """Code of (T^x, x) for every vertex x; the root entry codes the whole tree."""
    return _bytes_codes(rt, b"")


def _bytes_codes(rt: RootedTree, bits: bytes) -> tuple[bytes, ...]:
    """The code of every vertex, with v's color byte ``bits[v]`` (none when ``bits`` is empty) after its ``(``."""
    codes: list[bytes] = [b""] * rt.tree.n
    interned: dict[bytes, bytes] = {}
    for v in reversed(rt.bfs_order):
        kids = rt.children[v]
        inner = b"".join(sorted(codes[c] for c in kids)) if kids else b""
        raw = b"(" + bits[v : v + 1] + inner + b")"
        codes[v] = interned.setdefault(raw, raw)
    return tuple(codes)


def canon_code(rt: RootedTree, x: int) -> CanonCode:
    return subtree_codes(rt)[x]


@dataclass(frozen=True)
class TwinClass:
    """One similarity class among the children of a vertex."""

    rep: int
    members: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class TreeAnalysis:
    """The twin-class table of one rooting, built once and shared by every view.

    ``roots`` is ``(w,)`` for a tree rooted at w, or ``(u, v)`` when the
    rooting at u is cut at its child v: then the analysis holds two halves,
    ``children[u]`` leaves v out and ``ids[u]`` is the class of u's own half.
    An edge-centered tree is analysed that way, so its halves are isomorphic
    iff ``ids[u] == ids[v]``.

    ``children[x]`` is sorted by (class id, vertex id). ``sigs[c]`` lists the
    twin classes of any vertex of class c as (child class, multiplicity)
    pairs in ascending class order, so the children of x split into runs of
    those lengths. ``reps[c]`` is the first vertex (bottom-up) of class c.
    ``asym.a_by_class`` may keep the a-value of every class on the analysis, and ``_chain_pointers`` its pointers.
    """

    rt: RootedTree
    roots: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    ids: tuple[int, ...]
    sigs: tuple[tuple[tuple[int, int], ...], ...]
    reps: tuple[int, ...]

    @staticmethod
    def of(rt: RootedTree, cut: int | None = None) -> "TreeAnalysis":
        """Analyse ``rt``; with ``cut``, a child of the root, split off its branch."""
        children = list(rt.children)
        roots = (rt.root,)
        if cut is not None:
            children[rt.root] = tuple(c for c in children[rt.root] if c != cut)
            roots = (rt.root, cut)
        ids = [0] * rt.tree.n
        index: dict[tuple[int, ...], int] = {(): 0}
        sigs: list[tuple[tuple[int, int], ...]] = [()]
        reps = [rt.bfs_order[-1]]  # the last vertex in BFS order is a leaf, so leaves are class 0
        for x in reversed(rt.bfs_order):
            kids = children[x]
            if not kids:
                continue
            if len(kids) == 1:
                key = (ids[kids[0]],)
            elif len(kids) == 2:  # one comparison orders two children as the stable sort would
                a, b = kids
                ka, kb = ids[a], ids[b]
                if kb < ka:
                    children[x] = (b, a)
                    key = (kb, ka)
                else:
                    key = (ka, kb)
            else:
                kids = children[x] = tuple(sorted(kids, key=ids.__getitem__))
                key = tuple(map(ids.__getitem__, kids))
            cid = ids[x] = index.setdefault(key, len(sigs))
            if cid == len(sigs):  # a new class
                sigs.append(_runs(key))
                reps.append(x)
        return TreeAnalysis(rt, roots, tuple(children), tuple(ids), tuple(sigs), tuple(reps))

    @staticmethod
    def at_center(t: Tree) -> "TreeAnalysis":
        """Rooted at the vertex center, or at ``c.u`` cut at ``c.v`` for an edge center.

        Built on the first call for ``t`` and kept on ``t``: later calls return
        the same object, which callers share and must not mutate.
        """
        an = t.__dict__.get("_center_analysis")
        if an is None:
            w, *cut = _center_ends(center(t))
            an = TreeAnalysis.of(root_at(t, w), *cut)
            object.__setattr__(t, "_center_analysis", an)
        return an

    @property
    def iso_halves(self) -> bool:
        """Two isomorphic halves, which a half swap exchanges."""
        return len(self.roots) == 2 and self.ids[self.roots[0]] == self.ids[self.roots[1]]

    def classes_at(self, y: int) -> tuple[TwinClass, ...]:
        """Children of y grouped into twin classes, ordered by class id."""
        kids = self.children[y]
        out = []
        pos = 0
        for _, mu in self.sigs[self.ids[y]]:
            members = kids[pos : pos + mu]
            out.append(TwinClass(members[0], members))
            pos += mu
        return tuple(out)

    @property
    def by_vertex(self) -> dict[int, tuple[TwinClass, ...]]:
        """Twin classes of every vertex that has children."""
        return {y: self.classes_at(y) for y in self.rt.bfs_order if self.children[y]}


def _runs(key: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(class, multiplicity) pairs of a sorted key in one pass; one id, or two different ids, directly."""
    if len(key) == 1:
        return ((key[0], 1),)
    if len(key) == 2 and key[0] != key[1]:
        return ((key[0], 1), (key[1], 1))
    return tuple((k, len(list(run))) for k, run in groupby(key))


def _center_runs(an: TreeAnalysis) -> tuple[tuple[int, int], ...]:
    """The run table of a root placed on the central edge, in ``roots`` order; isomorphic halves are one run of 2."""
    return ((an.ids[an.roots[0]], 2),) if an.iso_halves else tuple((an.ids[r], 1) for r in an.roots)


def _at_root(an: TreeAnalysis, vals: list[int], product, w: int) -> int:
    """A rooted class value of the whole tree rooted at any vertex w, from a center analysis.

    ``vals`` holds the value of every class and ``product(vals, runs, drop)`` the recursion over a
    run table less one branch of class ``drop``. At w the branches are w's runs plus, away from the
    center, the branch b(w) toward it, rooted at w's parent p. The center halves a longest path, so
    that branch is taller than every other branch at w: it is a run of one, and b(x) = b(p) *
    product(p's runs less x), from 1 at a vertex center, or the other half at an edge center, down
    the path to w. Where x is p's only child that product is ``product(vals, ())``, so such chain
    steps are counted, jumped in one step by ``_chain_pointers``, and paid with one power.
    """
    _check_root(an.rt.tree.n, w)
    ids, sigs, children, parent, roots = an.ids, an.sigs, an.children, an.rt.parent, an.roots
    tops, steps = an.__dict__.get("_up", (None, None))
    acc, chain, x = vals[ids[w]], 0, w
    while x not in roots:
        p = parent[x]
        if len(children[p]) == 1:
            if tops is None:  # made the first time a walk meets a chain: a query at a center end makes none
                tops, steps = _chain_pointers(an)
            chain, x = chain + steps[x], tops[x]
        else:
            acc *= product(vals, sigs[ids[p]], ids[x])
            x = p
    if chain:
        acc *= product(vals, ()) ** chain
    for r in roots:
        if r != x:
            acc *= vals[ids[r]]
    return acc


def _chain_pointers(an: TreeAnalysis) -> tuple[list, list]:
    """Per vertex, the top of its run of only-child parents (itself if none) and the steps to it, in one top-down pass."""
    parent, children, roots = an.rt.parent, an.children, an.roots
    tops, steps = list(range(an.rt.tree.n)), [0] * an.rt.tree.n
    for x in an.rt.bfs_order:  # x's parent p comes first: where x is p's only child, x is one step past p
        if x not in roots and len(children[p := parent[x]]) == 1:
            tops[x], steps[x] = tops[p], steps[p] + 1
    object.__setattr__(an, "_up", (tops, steps))
    return tops, steps


def _toward_center(an: TreeAnalysis, vals: list[int], product) -> list[int]:
    """b(x) for every vertex x: the value of the branch at x toward the center, rooted at x's parent p.

    The top-down form of ``_at_root``'s walk: b is 1 at a vertex center and the other half's value
    at an edge center, and b(x) = b(p) * product(p's runs less one x-class). p's children are sorted
    by class id, so a run of twins is consecutive and pays one product. One value per vertex, no run table.
    """
    ids, sigs = an.ids, an.sigs
    b = [1] * an.rt.tree.n
    if len(an.roots) == 2:
        u, v = an.roots
        b[u], b[v] = vals[ids[v]], vals[ids[u]]
    for p in an.rt.bfs_order:
        k = -1
        for x in an.children[p]:
            if ids[x] != k:
                k = ids[x]
                value = b[p] * product(vals, sigs[ids[p]], k)
            b[x] = value
    return b


def child_classes(rt: RootedTree, y: int) -> tuple[TwinClass, ...]:
    """Children of y grouped by subtree class, ordered by class id."""
    return TreeAnalysis.of(rt).classes_at(y)


def twin_classes(rt: RootedTree) -> TreeAnalysis:
    """The twin-class table of ``rt``; ``by_vertex`` and ``classes_at`` view it per vertex."""
    return TreeAnalysis.of(rt)


def unrooted_code(t: Tree) -> CanonCode:
    """Canonical code of the unrooted isomorphism type: the least code rooted at a center end."""
    return min(subtree_codes(root_at(t, w))[w] for w in _center_ends(center(t)))


def is_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Equal sorted center classes, after both center analyses' run tables share one id table."""
    if t1.n != t2.n:
        return False
    table: dict[tuple[tuple[int, int], ...], int] = {}
    keys = []
    for t in (t1, t2):
        an = TreeAnalysis.at_center(t)
        ids: list[int] = []
        for sig in an.sigs:
            ids.append(table.setdefault(tuple(sorted((ids[k], mu) for k, mu in sig)), len(table)))
        keys.append(sorted(ids[an.ids[r]] for r in an.roots))
    return keys[0] == keys[1]


def colored_subtree_codes(rt: RootedTree, coloring: Coloring) -> tuple[bytes, ...]:
    """Codes refined by vertex color; equal iff color-preserving isomorphic."""
    if coloring.n != rt.tree.n:
        raise ValueError("coloring length does not match tree")
    return _bytes_codes(rt, coloring.bits().encode())


def colored_unrooted_code(t: Tree, coloring: Coloring) -> bytes:
    """Canonical form of a colored tree; equal iff a color-preserving isomorphism exists."""
    return min(colored_subtree_codes(root_at(t, w), coloring)[w] for w in _center_ends(center(t)))
