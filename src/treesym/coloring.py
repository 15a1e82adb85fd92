"""Distinguishing 2-colorings: unranking, construction, verification, ray extension.

The unranking realizes the counting product a(T,w) = 2 * prod C(a(x), mu(x)) as an explicit
bijection: one low-order bit picks the root color (0 = black), then each similarity class consumes
one mixed-radix digit that is decoded in the combinatorial number system (colexicographic) into an
unordered set of mu distinct sub-coloring classes, handed to the twins in ascending vertex-id
order. The classes at a vertex consume their digits in class-id order (see :mod:`treesym.canon`),
which is the same order at any two twins, so twins given different sub-indices always decode to
inequivalent colorings. A vertex's color depends only on its own sub-index, so one top-down pass
over the rooting's BFS order decodes the whole tree, and zero sub-indices are never written.

Verification interns a colored class id per vertex from its color and its children's colored ids:
a color-preserving non-identity automorphism exists iff two twins somewhere share a colored id, or
the two halves of an edge center do.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb, factorial, isqrt

from .asym import _a_product, a_by_class, asym_of
from .canon import TreeAnalysis, _center_runs, _runs
from .trees import Coloring, RootedTree, Tree, _bfs, _check_root, _cut, root_at


def combinadic_unrank(rank: int, universe: int, k: int) -> tuple[int, ...]:
    """rank -> the rank-th k-subset of {0..universe-1} in colexicographic order.

    Decodes rank = sum C(c_i, i) with c_1 < ... < c_k. For k = 2, the size
    unranking meets most, the top element is the largest c with
    c(c-1)/2 <= rank, c = (1 + isqrt(8 rank + 1)) // 2, and the rest is the
    rank left. Other k find each element c_i, the largest c with
    C(c, i) <= rank, among i candidates: (c-i+1)^i <= i! C(c, i) <= c^i puts
    it in [r, r+i-1] for r = floor((i! rank)^(1/i)), so huge universes
    (a-values reach 2^n) cost one integer root and O(k log k) ``comb`` calls.
    At i = 1 that window is the one candidate rank, so k = 1 gives (rank,).
    """
    if k < 0 or universe < 0 or rank < 0 or rank >= comb(universe, k):
        raise ValueError(f"rank {rank} out of range for C({universe}, {k})")
    if k == 2:
        c = (1 + isqrt(8 * rank + 1)) // 2
        return (rank - c * (c - 1) // 2, c)
    out = []
    hi = universe - 1
    for i in range(k, 0, -1):
        r = _iroot(factorial(i) * rank, i)
        lo, hi = max(r, i - 1), min(r + i - 1, hi)
        # largest c in [lo, hi] with C(c, i) <= rank
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if comb(mid, i) <= rank:
                lo = mid
            else:
                hi = mid - 1
        out.append(lo)
        rank -= comb(lo, i)
        hi = lo - 1
    out.reverse()
    return tuple(out)


def _iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for an integer x >= 0, exact at any size.

    Newton's method from above, started just over the root of x's top half,
    where it needs few steps.
    """
    if x < 2 or k == 1:
        return x
    s = x.bit_length() // (2 * k)  # half the bits of the root
    y = (_iroot(x >> k * s, k) + 1) << s if s else 1 << -(-x.bit_length() // k)
    while True:
        z = ((k - 1) * y + x // y ** (k - 1)) // k
        if z >= y:
            return y
        y = z


def _branch(children, x: int) -> list[int]:
    """The vertices of x's branch, each parent before its children."""
    order = [x]
    for v in order:
        order.extend(children[v])
    return order


def _unrank_down(an: TreeAnalysis, a: list[int], top, sub, colors: list[str | None], order=None):
    """Color ``top``'s vertices (parents first) by their sub-indices, writing their children's into ``sub``.

    Unset entries of ``sub`` read 0, so a zero index writes only positions 1..mu-1 of
    its twin runs: nothing where every run is a single branch. ``order(runs, kids)``,
    if given, reorders the twin classes (and children) of a nonzero index with two or more runs.
    """
    children, sigs, ids = an.children, an.sigs, an.ids
    for v in top:
        k = sub[v]
        colors[v] = "0" if k & 1 else "1"
        k >>= 1
        kids = children[v]
        if not k:
            if len(sigs[ids[v]]) < len(kids):  # a twin run takes sub-indices 0..mu-1, its first left unset
                for p in range(1, len(kids)):
                    if ids[kids[p]] == ids[kids[p - 1]]:
                        sub[kids[p]] = sub[kids[p - 1]] + 1
            continue
        runs = sigs[ids[v]]  # a leaf's is empty, so what is left of its index raises below
        if order and len(runs) > 1:
            runs, kids = order(runs, kids)
        pos = 0
        for c, mu in runs:
            if mu == 1:
                k, sub[kids[pos]] = divmod(k, a[c])
            else:
                k, digit = divmod(k, comb(a[c], mu))
                for y, s in zip(kids[pos : pos + mu], combinadic_unrank(digit, a[c], mu)):
                    sub[y] = s
            pos += mu
        if k:
            raise AssertionError("index not fully consumed")


def _unrank_into(an: TreeAnalysis, a: list[int], x: int, index: int, colors: list[str | None], order=None):
    """Write the index-th inequivalent distinguishing coloring of x's branch.

    One ``_unrank_down`` pass over the branch with its sub-indices in a dict: linear in the branch.
    """
    _unrank_down(an, a, _branch(an.children, x), defaultdict(int, {x: index}), colors, order)


def _to_coloring(colors: list[str | None]) -> Coloring:
    """The Coloring whose ``bits()`` are ``colors``, one join and one parse."""
    if None in colors:
        raise AssertionError("coloring left a vertex uncolored")
    return Coloring(len(colors), int("".join(colors)[::-1], 2))


def unrank_of(an: TreeAnalysis, a: list[int], index: int) -> Coloring:
    """The index-th of the asym_of(an, a) coloring classes of the analysed tree."""
    total = asym_of(an, a)
    if not (0 <= index < total):
        raise IndexError(f"index {index} out of range [0, {total})")
    colors: list[str | None] = [None] * an.rt.tree.n
    sub = [0] * len(colors)
    roots = iter(an.roots)
    for c, mu in _center_runs(an):  # decoded like any vertex's twin runs, less the root's color bit
        index, digit = divmod(index, comb(a[c], mu))
        for s, r in zip(combinadic_unrank(digit, a[c], mu), roots):  # digits first, or zip drops a root
            sub[r] = s
    _unrank_down(an, a, an.rt.bfs_order, sub, colors)  # an edge center's cut root follows its half's root
    return _to_coloring(colors)


def unrank_distinguishing(rt: RootedTree, index: int) -> Coloring:
    """The index-th of the a(T,w) coloring classes, one concrete coloring each."""
    an = TreeAnalysis.of(rt)
    return unrank_of(an, a_by_class(an), index)


def unrank_unrooted(t: Tree, index: int) -> Coloring:
    """Unranking adapted to the center kind, bijective onto the a(T) classes."""
    an = TreeAnalysis.at_center(t)
    return unrank_of(an, a_by_class(an), index)


def construct_of(an: TreeAnalysis, a: list[int]) -> Coloring | None:
    """The index-0 coloring of a center analysis, verified, or None when a(T) = 0."""
    if asym_of(an, a) == 0:
        return None
    coloring = unrank_of(an, a, 0)
    if not distinguishes(an, coloring):
        raise AssertionError("constructed coloring is not distinguishing")
    return coloring


def construct_distinguishing(t: Tree) -> Coloring | None:
    """A verified distinguishing coloring when one exists (index-0 unranking)."""
    an = TreeAnalysis.at_center(t)
    return construct_of(an, a_by_class(an))


def _colored_ids(an: TreeAnalysis, colors, order, ids, table: dict) -> bool:
    """Write the colored class id of every vertex of ``order`` (children first) into ``ids``.

    An id is interned in ``table`` from the vertex's color and its children's
    sorted ids (a leaf from its color alone), so ids drawn from one table are
    equal iff a color-preserving isomorphism maps one branch onto the other.
    Returns False at the first vertex whose twins collide (two children with
    equal ids), True otherwise.
    """
    children, setdefault = an.children, table.setdefault
    for v in order:
        kids = children[v]
        if not kids:  # a leaf's key is its color character, never equal to a tuple key
            ids[v] = setdefault(colors[v], len(table))
        elif len(kids) == 1:
            ids[v] = setdefault((colors[v], ids[kids[0]]), len(table))
        elif len(kids) == 2:  # the sorted key by one comparison
            a, b = ids[kids[0]], ids[kids[1]]
            if a == b:
                return False
            ids[v] = setdefault((colors[v], a, b) if a < b else (colors[v], b, a), len(table))
        else:
            key = sorted([ids[c] for c in kids])
            if len(set(key)) < len(key):
                return False
            ids[v] = setdefault((colors[v], *key), len(table))
    return True


def _colored_key(an: TreeAnalysis, colors: str, table: dict) -> tuple[int, ...] | None:
    """Sorted colored ids of ``an.roots``, or None when ``colors`` (``Coloring.bits()``, a pin as "2") do not distinguish.

    None means a non-identity automorphism of the analysed rooting (the half
    swap included) preserves the colors. Keys of center analyses drawn from
    one table are equal iff the colored trees are color-isomorphic. One pass
    covers both halves: the cut root is still in the rooting's BFS order.
    """
    ids = [0] * an.rt.tree.n
    if not _colored_ids(an, colors, reversed(an.rt.bfs_order), ids, table):
        return None
    if len(an.roots) == 1:
        return (ids[an.roots[0]],)
    a, b = ids[an.roots[0]], ids[an.roots[1]]
    if a == b:
        return None
    return (a, b) if a < b else (b, a)


def distinguishes(an: TreeAnalysis, coloring: Coloring) -> bool:
    """True iff no non-identity automorphism of the analysed rooting preserves the colors."""
    return _colored_key(an, coloring.bits(), {}) is not None


def verify_distinguishing(t: Tree, coloring: Coloring, pinned: int | None = None) -> bool:
    """True iff no non-identity automorphism (fixing ``pinned``, as a third color would) preserves the colors."""
    if coloring.n != t.n:
        raise ValueError("coloring length does not match tree")
    colors = coloring.bits()
    if pinned is not None:
        _check_root(t.n, pinned)
        colors = f"{colors[:pinned]}2{colors[pinned + 1:]}"
    return _colored_key(TreeAnalysis.at_center(t), colors, {}) is not None


@dataclass(frozen=True)
class OneEndedTruncation:
    """Finite stand-in for a one-ended tree: a ray plus a rayless lobe per ray vertex.

    ``ray`` is a path v_0..v_D with deg(v_0) = 1; ``lobes[i]`` is the vertex
    set of the component of T minus the ray edges that contains ray[i].
    """

    tree: Tree
    ray: tuple[int, ...]
    lobes: tuple[tuple[int, ...], ...]


def one_ended_truncation(tree: Tree, ray) -> OneEndedTruncation:
    ray = tuple(ray)
    if len(ray) < 1 or len(set(ray)) != len(ray):
        raise ValueError("ray must be a nonempty sequence of distinct vertices")
    for v in ray:
        if not (0 <= v < tree.n):
            raise ValueError(f"ray vertex {_cut(v)} out of range")
    for a, b in zip(ray, ray[1:]):
        if b not in tree.adj[a]:
            raise ValueError(f"ray vertices {a}, {b} are not adjacent")
    if tree.degree(ray[0]) != 1:
        raise ValueError("ray origin must have degree 1")
    # T minus the ray edges has one component per ray vertex; from v_D, a BFS parent off the ray shares its lobe
    order, parent = _bfs(tree.adj, ray[-1])
    lob = [-1] * tree.n
    lobes: list[list[int]] = [[] for _ in ray]
    for i, v in enumerate(ray):
        lob[v] = i
    for v in order:
        if lob[v] < 0:
            lob[v] = lob[parent[v]]
        lobes[lob[v]].append(v)
    return OneEndedTruncation(tree, ray, tuple(tuple(sorted(m)) for m in lobes))


class LobeAssignmentError(RuntimeError):
    """Certificate that some lobe family cannot receive inequivalent colorings.

    Cannot occur when the truncation has finite motion m and maximum degree
    at most 2^(m/2); surfaced instead of assumed.
    """

    def __init__(self, ray_vertex: int, branch_rep: int, needed: int, available: int):
        self.ray_vertex = ray_vertex
        self.branch_rep = branch_rep
        self.needed = needed
        self.available = available
        super().__init__(
            f"at ray vertex {ray_vertex}: need {needed} inequivalent distinguishing "
            f"colorings for the branch family at {branch_rep}, only {available} exist"
        )


def extend_ray_coloring(tr: OneEndedTruncation, ray_colors) -> Coloring:
    """Extend a coloring of the ray to one that distinguishes (T, v_D).

    Walks v_0..v_D; at each step the branches hanging at v_i (all except the
    one toward v_{i+1}) are grouped into twin classes. The class containing
    the already-colored branch toward v_{i-1} (none at v_0) receives fresh
    sub-colorings inequivalent to it; every other class receives pairwise
    inequivalent sub-colorings by unranking 0, 1, .... The result provably
    breaks every automorphism fixing v_D, and is verified before being returned.
    A ray color is True or 1 (black), or False or 0 (white); any other item raises ValueError.

    One rooting, at v_D, gives every lobe class and the prefix branch P_k at
    v_k. The suffix branch S_k at v_k, away from v_{k-1}, has an id only if it
    is a class there: S_{k-1} has S_k as a branch, so the lookup stops at the
    first S_k that is not, and only lobe classes are ever ranked. Step i
    orders classes as the whole tree rooted at v_i would: the class whose last
    vertex in BFS order from v_i comes later ranks first. Lobe k at depth d
    lies at depth |i - k| + d, each side keeps its BFS order (from v_D behind,
    from v_0 ahead), and v_i's sorted adjacency breaks ties at equal depth.
    Ranks are computed only between failing classes at v_i and where a nonzero
    index is split over two or more classes with more than one choice.
    """
    tree, ray = tr.tree, tr.ray
    ray_colors = tuple(ray_colors)
    for b in ray_colors:  # a bit string's "0" would read as black
        if not isinstance(b, int) or b not in (0, 1):
            raise ValueError(f"ray color must be a bool or 0/1, got {_cut(repr(b))}")
    if len(ray_colors) != len(ray):
        raise ValueError("ray coloring length must match the ray")
    n, end = tree.n, len(ray) - 1
    colors: list[str | None] = [None] * n
    lob, depth, top = [-1] * n, [0] * n, [0] * n  # lobe index, depth in it, ancestor next to the ray
    for k, (v, black) in enumerate(zip(ray, ray_colors)):
        colors[v], lob[v] = ("1" if black else "0"), k
    an = TreeAnalysis.of(root_at(tree, ray[-1]))
    ids, bfs = an.ids, an.rt.bfs_order
    lobes: list[list[int]] = [[] for _ in ray]  # BFS positions from v_D, lobe by lobe
    for p, v in enumerate(bfs):
        if lob[v] < 0:
            u = an.rt.parent[v]
            lob[v], depth[v], top[v] = lob[u], depth[u] + 1, top[u] if depth[u] else v
        lobes[lob[v]].append(p)
    a = [0] * len(an.sigs)  # a-values of the lobe classes, the only ones the walk reads
    for c in sorted({ids[v] for v in range(n) if depth[v]}):
        a[c] = _a_product(a, an.sigs[c])
    index = dict(zip(an.sigs, range(len(an.sigs))))
    suffix = [-1] * len(ray)  # the class of S_k, where it is one
    for k in range(end, 0, -1):
        key = [ids[c] for c in an.children[ray[k]] if c != ray[k - 1]] + suffix[k + 1 : k + 2]
        suffix[k] = index.get(_runs(tuple(sorted(key))), -1)
        if suffix[k] < 0:  # S_{k-1} has S_k as a branch, so no earlier S_k is a class either
            break
    ahead: dict[int, list] = {}  # class -> (depth, position, lobe) of its vertices in BFS order from v_0
    for p, y in enumerate(_bfs(tree.adj, ray[0])[0]):
        k = lob[y]
        if depth[y] or suffix[k] >= 0:
            ahead.setdefault(ids[y] if depth[y] else suffix[k], []).append((k + depth[y], p, k))
    behind: dict[int, int] = {}  # class -> last BFS position from v_D inside P_i

    def last(c):
        """(depth, side, position) of the last vertex of class c in BFS order from v_i."""
        keys = []
        if c in behind:
            x = bfs[behind[c]]
            side = top[x] if lob[x] == i else back
            keys.append((i - lob[x] + depth[x], 0 if side < nxt else 2, behind[c]))
        far = ahead.get(c, [])
        while far and far[-1][2] <= i:
            far.pop()
        if far:
            keys.append((far[-1][0] - i, 1, far[-1][1]))
        return max(keys)

    def order(runs, kids):
        many = [a[c] > mu for c, mu in runs]
        if sum(many) < 2:
            return runs, kids
        groups, pos = [], 0
        for (c, mu), m in zip(runs, many):
            groups.append((last(c) if m else (), c, mu, kids[pos : pos + mu]))
            pos += mu
        groups.sort(key=lambda g: g[0], reverse=True)
        return [g[1:3] for g in groups], [m for g in groups for m in g[3]]

    def branch_id(x, table):
        """Colored id of x's branch; a twin collision in it would fail the final check too."""
        branch: dict = {}
        if not _colored_ids(an, colors, reversed(_branch(an.children, x)), branch, table):
            raise AssertionError("extended coloring is not distinguishing")
        return branch[x]

    for i, v_i in enumerate(ray):
        back, nxt = ray[i - 1] if i else None, ray[i + 1] if i < end else n
        for p in lobes[i]:
            behind[ids[bfs[p]]] = max(p, behind.get(ids[bfs[p]], -1))
        classes = [c for c in an.classes_at(v_i) if c.members != (back,)]
        failing = [c for c in classes if a[ids[c.rep]] < c.multiplicity]
        if failing:
            cls = max(failing, key=lambda c: last(ids[c.rep])) if len(failing) > 1 else failing[0]
            raise LobeAssignmentError(v_i, cls.rep, cls.multiplicity, a[ids[cls.rep]])
        for cls in classes:
            if back in cls.members:
                # a twin of the back branch makes |P_i| > 2 |P_{i-1}|, so these recolorings sum to O(n)
                table: dict = {}
                back_id = branch_id(back, table)
                next_index = 0
                for m in (m for m in cls.members if m != back):
                    while True:
                        _unrank_into(an, a, m, next_index, colors, order)
                        next_index += 1
                        if branch_id(m, table) != back_id:
                            break
            elif cls.multiplicity == 1 and a[ids[cls.rep]] == 1 << an.rt.subtree_size[cls.rep]:
                # asymmetric lone branch: any coloring works; all-white for determinism
                _whiten_branch(an, cls.rep, colors)
            else:
                for j, m in enumerate(cls.members):
                    _unrank_into(an, a, m, j, colors, order)

    result = _to_coloring(colors)
    # the check of verify_distinguishing(tree, result, pinned=v_D), on the same rooting
    if not distinguishes(an, result):
        raise AssertionError("extended coloring is not distinguishing")
    return result


def _whiten_branch(an: TreeAnalysis, x: int, colors):
    for v in _branch(an.children, x):
        colors[v] = "0"


def to_dot(t: Tree, coloring: Coloring | None = None) -> str:
    """DOT rendering with filled nodes for black vertices (write-only artifact)."""
    lines = ["graph tree {", "  node [shape=circle];"]
    bits = coloring.bits() if coloring is not None else "0" * t.n
    for v in range(t.n):
        lines.append(f"  {v} [style=filled fillcolor=black fontcolor=white];" if bits[v] == "1" else f"  {v};")
    for u, v in sorted(t.edges()):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
