"""Exact asymmetrizing numbers via the twin-class product recursion.

For a rooted tree the number of inequivalent distinguishing sets is

    a(T,w) = 2 * prod over similarity classes c of the root's children
             of C(a(rep_c), mu_c)

applied recursively, with C(a, mu) = 0 whenever mu > a, which makes
non-2-distinguishability propagate automatically. The unrooted number
follows from the center: a vertex center gives a(T) = a(T,w); an edge
center uv gives C(a(T^u), 2) when the halves are isomorphic and
a(T^u) * a(T^v) otherwise (the stabilizer of the edge is the direct
product of the two rooted groups). Everything is exact integer math.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .autom import aut_order_of
from .canon import TreeAnalysis, _at_root, _center_runs, _toward_center
from .trees import RootedTree, Tree


def _a_product(a: list[int], runs, drop: int = -1) -> int:
    """2 * prod C(a(k), mu) over (class k, multiplicity mu) runs, with one fewer branch of class ``drop`` (-1: none)."""
    acc = 2
    for k, mu in runs:
        mu -= k == drop
        acc *= a[k] if mu == 1 else comb(a[k], mu)  # C(a, 1) = a
        if not acc:
            break
    return acc


def a_by_class(an: TreeAnalysis) -> list[int]:
    """a(T^x, x) of every class, in one pass over the class table: ``_a_product`` of each class's runs.

    The list is kept on ``an`` when its values total at most 64 bits per vertex, O(n) words like ``ids``,
    and later calls return it, shared and not to be mutated. Larger values (a path's are about n^2/8
    bits, over the budget from n = 507 on) are recomputed on every call.
    """
    a = an.__dict__.get("_a")
    if a is not None:
        return a
    a = []
    for sig in an.sigs:
        a.append(_a_product(a, sig))
    if sum(map(int.bit_length, a)) <= 64 * an.rt.tree.n:
        object.__setattr__(an, "_a", a)
    return a


def asym_of(an: TreeAnalysis, a: list[int]) -> int:
    """a of the analysed tree, a(T,w) or a(T): the product at the center, less the root color's factor 2."""
    return _a_product(a, _center_runs(an)) >> 1


def a_at_root(an: TreeAnalysis, a: list[int], w: int) -> int:
    """a(T,w) at any vertex w, from a center analysis and its class values: one product along the path to the center."""
    return _at_root(an, a, _a_product, w)


def asym_at_every_root(t: Tree) -> tuple[int, ...]:
    """a(T,w) for every vertex w of t: w's class value times b(w), the branch toward the center, in one pass."""
    an = TreeAnalysis.at_center(t)
    a = a_by_class(an)
    return tuple(a[c] * b for c, b in zip(an.ids, _toward_center(an, a, _a_product)))


def a_values(rt: RootedTree) -> tuple[int, ...]:
    """a(T^x, x) for every vertex x."""
    an = TreeAnalysis.of(rt)
    a = a_by_class(an)
    return tuple(a[c] for c in an.ids)


def asym_rooted(rt: RootedTree) -> int:
    """a(T,w): inequivalent distinguishing sets under the root stabilizer, from the tree's center analysis.

    Over every root of one tree the class values are computed once where ``a_by_class`` keeps them (at
    most 64 bits per vertex), once per call otherwise, and each run of only children is jumped by pointers made once.
    """
    an = TreeAnalysis.at_center(rt.tree)
    return a_at_root(an, a_by_class(an), rt.root)


def asym_unrooted(t: Tree) -> int:
    """a(T): inequivalent distinguishing sets under the full group."""
    an = TreeAnalysis.at_center(t)
    return asym_of(an, a_by_class(an))


def is_2_distinguishable(t: Tree) -> bool:
    return asym_unrooted(t) > 0


@dataclass(frozen=True)
class GroupOrderBound:
    """Witnesses for the group-order bound |Aut(T)| * a(T) <= 2^n."""

    holds: bool
    product: int
    bound: int

    @staticmethod
    def of(n: int, aut: int, a: int) -> "GroupOrderBound":
        if a == 0:
            raise ValueError("tree is not 2-distinguishable; the bound does not apply")
        product = aut * a
        bound = 1 << n
        return GroupOrderBound(product <= bound, product, bound)


def group_order_bound_check(t: Tree) -> GroupOrderBound:
    """Check |Aut(T)| * a(T) <= 2^n; requires a 2-distinguishable tree."""
    an = TreeAnalysis.at_center(t)
    return GroupOrderBound.of(t.n, aut_order_of(an), asym_of(an, a_by_class(an)))
