"""Distinguishing 2-colorings: unranking, construction, verification, ray extension.

The unranking realizes the counting product a(T,w) = 2 * prod C(a(x), mu(x))
as an explicit bijection: one low-order bit picks the root color (0 = black),
then each similarity class consumes one mixed-radix digit that is decoded in
the combinatorial number system (colexicographic) into an unordered set of
mu distinct sub-coloring classes, handed to the twins in ascending vertex-id
order. The classes at a vertex consume their digits in class-id order (see
:mod:`treesym.canon`), which is the same order at any two twins, so twins
given different sub-indices always decode to inequivalent colorings.

Verification interns a colored class id per vertex from its color and its
children's colored ids: a color-preserving non-identity automorphism exists
iff two twins somewhere share a colored id, or the two halves of an edge
center do.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from .asym import a_by_class, asym_of
from .canon import TreeAnalysis
from .trees import Coloring, RootedTree, Tree, root_at


def combinadic_unrank(rank: int, universe: int, k: int) -> tuple[int, ...]:
    """rank -> the rank-th k-subset of {0..universe-1} in colexicographic order.

    Decodes rank = sum C(c_i, i) with c_1 < ... < c_k. The two sizes that
    unranking meets most take closed forms: for k = 1 the subset is (rank,),
    and for k = 2 the top element is the largest c with c(c-1)/2 <= rank,
    c = (1 + isqrt(8 rank + 1)) // 2, and the rest is a k = 1 digit. Larger
    k binary-search each element, so huge universes (a-values reach 2^n)
    cost O(k log universe) ``comb`` calls.
    """
    if k < 0 or universe < 0 or rank < 0 or rank >= comb(universe, k):
        raise ValueError(f"rank {rank} out of range for C({universe}, {k})")
    if k == 1:
        return (rank,)
    if k == 2:
        c = (1 + isqrt(8 * rank + 1)) // 2
        return (rank - c * (c - 1) // 2, c)
    out = []
    hi = universe - 1
    for i in range(k, 0, -1):
        lo = i - 1
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


def _unrank_into(an: TreeAnalysis, a: list[int], x: int, index: int, colors: list[int | None]):
    """Write the index-th inequivalent distinguishing coloring of x's branch.

    Iterative so deep chains cannot hit the recursion limit.
    """
    stack = [(x, index)]
    while stack:
        v, k = stack.pop()
        colors[v] = 0 if k & 1 else 1
        k >>= 1
        kids = an.children[v]
        pos = 0
        for c, mu in an.sigs[an.ids[v]]:
            cap = comb(a[c], mu)
            digit = k % cap
            k //= cap
            chosen = combinadic_unrank(digit, a[c], mu)
            stack.extend(zip(kids[pos : pos + mu], chosen))
            pos += mu
        if k:
            raise AssertionError("index not fully consumed")


def _to_coloring(colors: list[int | None]) -> Coloring:
    if None in colors:
        raise AssertionError("coloring left a vertex uncolored")
    return Coloring.from_black(len(colors), (v for v, c in enumerate(colors) if c))


def unrank_of(an: TreeAnalysis, a: list[int], index: int) -> Coloring:
    """The index-th of the asym_of(an, a) coloring classes of the analysed tree."""
    total = asym_of(an, a)
    if not (0 <= index < total):
        raise IndexError(f"index {index} out of range [0, {total})")
    colors: list[int | None] = [None] * an.rt.tree.n
    if len(an.roots) == 1:
        _unrank_into(an, a, an.roots[0], index, colors)
        return _to_coloring(colors)
    u, v = an.roots
    a_u = a[an.ids[u]]
    if an.iso_halves:
        s_u, s_v = combinadic_unrank(index, a_u, 2)
    else:
        s_u, s_v = index % a_u, index // a_u
    _unrank_into(an, a, u, s_u, colors)
    _unrank_into(an, a, v, s_v, colors)
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


def _colored_ids(an: TreeAnalysis, colors, top: int, table: dict) -> tuple[dict[int, int], bool]:
    """Colored class id of every vertex in the branch at ``top``, and whether twins collide.

    An id is interned in ``table`` from the vertex's color and its children's
    sorted ids, so ids drawn from one table are equal iff a color-preserving
    isomorphism maps one branch onto the other. Twins collide when two
    children of one vertex get equal ids.
    """
    order = [top]
    for v in order:
        order.extend(an.children[v])
    ids: dict[int, int] = {}
    collide = False
    for v in reversed(order):
        kids = sorted(ids[c] for c in an.children[v])
        if len(kids) > 1 and len(set(kids)) < len(kids):
            collide = True
        ids[v] = table.setdefault((colors[v], *kids), len(table))
    return ids, collide


def distinguishes(an: TreeAnalysis, coloring: Coloring) -> bool:
    """True iff no non-identity automorphism of the analysed rooting preserves the colors.

    With two halves the automorphisms include the half swap.
    """
    colors = coloring.bits()
    table: dict = {}
    top_ids = []
    for r in an.roots:
        ids, collide = _colored_ids(an, colors, r, table)
        if collide:
            return False
        top_ids.append(ids[r])
    return len(set(top_ids)) == len(top_ids)


def verify_distinguishing(t: Tree, coloring: Coloring, pinned: int | None = None) -> bool:
    """True iff no non-identity automorphism (fixing ``pinned``) preserves the colors."""
    if coloring.n != t.n:
        raise ValueError("coloring length does not match tree")
    if pinned is not None:
        an = TreeAnalysis.of(root_at(t, pinned))
    else:
        an = TreeAnalysis.at_center(t)
    return distinguishes(an, coloring)


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
            raise ValueError(f"ray vertex {v} out of range")
    for a, b in zip(ray, ray[1:]):
        if b not in tree.adj[a]:
            raise ValueError(f"ray vertices {a}, {b} are not adjacent")
    if tree.degree(ray[0]) != 1:
        raise ValueError("ray origin must have degree 1")
    ray_edges = {frozenset(e) for e in zip(ray, ray[1:])}
    comp = [-1] * tree.n
    lobes = []
    for i, anchor in enumerate(ray):
        if comp[anchor] != -1:
            raise ValueError("ray vertices must lie in distinct lobes")
        stack = [anchor]
        comp[anchor] = i
        members = [anchor]
        while stack:
            u = stack.pop()
            for w in tree.adj[u]:
                if frozenset((u, w)) in ray_edges or comp[w] != -1:
                    continue
                comp[w] = i
                members.append(w)
                stack.append(w)
        lobes.append(tuple(sorted(members)))
    if any(c == -1 for c in comp):
        raise ValueError("lobes do not cover the tree; ray is not spanning")
    return OneEndedTruncation(tree, ray, tuple(lobes))


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

    Walks v_1..v_D; at each step the branches hanging at v_i (all except the
    one toward v_{i+1}) are grouped into twin classes. The class containing
    the already-colored branch toward v_{i-1} receives fresh sub-colorings
    inequivalent to it; every other class receives pairwise inequivalent
    sub-colorings by unranking 0, 1, .... The result provably breaks every
    automorphism fixing v_D, and is verified before being returned.
    """
    tree = tr.tree
    ray = tr.ray
    ray_colors = tuple(bool(b) for b in ray_colors)
    if len(ray_colors) != len(ray):
        raise ValueError("ray coloring length must match the ray")
    colors: list[int | None] = [None] * tree.n
    for v, black in zip(ray, ray_colors):
        colors[v] = 1 if black else 0

    for i in range(1, len(ray)):
        v_i = ray[i]
        an = TreeAnalysis.of(root_at(tree, v_i), cut=ray[i + 1] if i + 1 < len(ray) else None)
        a = a_by_class(an)
        back = ray[i - 1]
        for cls in an.classes_at(v_i):
            avail = a[an.ids[cls.rep]]
            if back in cls.members:
                others = [m for m in cls.members if m != back]
                if not others:
                    continue
                if avail < cls.multiplicity:
                    raise LobeAssignmentError(v_i, cls.rep, cls.multiplicity, avail)
                table: dict = {}
                back_id = _colored_ids(an, colors, back, table)[0][back]
                next_index = 0
                for m in others:
                    while True:
                        _unrank_into(an, a, m, next_index, colors)
                        next_index += 1
                        if _colored_ids(an, colors, m, table)[0][m] != back_id:
                            break
            else:
                if avail < cls.multiplicity:
                    raise LobeAssignmentError(v_i, cls.rep, cls.multiplicity, avail)
                if cls.multiplicity == 1 and avail == 1 << an.rt.subtree_size[cls.rep]:
                    # asymmetric lone branch: any coloring works; all-white for determinism
                    _whiten_branch(an, cls.rep, colors)
                    continue
                for j, m in enumerate(cls.members):
                    _unrank_into(an, a, m, j, colors)

    result = _to_coloring(colors)
    if not verify_distinguishing(tree, result, pinned=ray[-1]):
        raise AssertionError("extended coloring is not distinguishing")
    return result


def _whiten_branch(an: TreeAnalysis, x: int, colors):
    stack = [x]
    while stack:
        v = stack.pop()
        colors[v] = 0
        stack.extend(an.children[v])


def to_dot(t: Tree, coloring: Coloring | None = None) -> str:
    """DOT rendering with filled nodes for black vertices (write-only artifact)."""
    lines = ["graph tree {", "  node [shape=circle];"]
    for v in range(t.n):
        if coloring is not None and coloring.is_black(v):
            lines.append(f"  {v} [style=filled fillcolor=black fontcolor=white];")
        else:
            lines.append(f"  {v};")
    for u, v in sorted(t.edges()):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
