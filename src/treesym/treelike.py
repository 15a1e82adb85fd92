"""Finite tree-like graph analysis: witness test, spanning forest, distinguishing.

A rooted graph is tree-like when every vertex y has a neighbor x such that y
lies on all shortest x-to-root paths, i.e. a child of which it is the only
parent in the BFS shortest-path DAG. The edges realizing that condition form
a forest F; the distinguishing procedure colors F's components pairwise
inequivalently under admissibility restrictions and then verifies the union
against the graph's automorphisms, read once as a stream from the oracle's
backtracker. On finite inputs success is verified, never assumed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

from .canon import TreeAnalysis
from .coloring import _colored_key, _to_coloring
from .oracle import _GRAPH_AUT_LIMIT, MAX_GRAPH_VERTICES, _graph_search
from .trees import Coloring, EdgeListParseError, Tree, _adjacency, _bfs, _build_adjacency, _check_root, _union_find, read_edge_lines


@dataclass(frozen=True)
class RootedGraph:
    """Connected simple graph on dense ids 0..n-1 with a distinguished root."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    root: int

    @staticmethod
    def from_edges(n: int, edges, root: int) -> "RootedGraph":
        if n <= 0:
            raise ValueError("vertex count must be at least 1")
        edges = list(edges)
        if len(edges) < n - 1:  # checked before anything is sized by n
            raise ValueError("graph is disconnected")
        return RootedGraph._rooted(n, _adjacency(n, edges), root)

    @staticmethod
    def _rooted(n: int, adj, root: int) -> "RootedGraph":
        _check_root(n, root)
        if len(_bfs(adj, root)[0]) != n:
            raise ValueError("graph is disconnected")
        return RootedGraph(n, adj, root)


def parse_graph_edge_list(text: str, root: int = 0) -> RootedGraph:
    """Same wire format as trees, with the cycle check relaxed (graphs allowed)."""
    n, edges = read_edge_lines(text)
    # Checked before anything is sized by n, so a huge header fails fast.
    if len(edges) < n - 1:
        raise EdgeListParseError("graph is disconnected")
    return RootedGraph._rooted(n, _build_adjacency(n, edges), root)


def _preds(g: RootedGraph) -> list[list[int]]:
    """preds[x]: x's neighbors one step nearer the root, i.e. its parents in the BFS DAG."""
    order, parent = _bfs(g.adj, g.root)
    dist = [0] * g.n
    for v in order[1:]:
        dist[v] = dist[parent[v]] + 1
    return [[y for y in g.adj[x] if dist[y] == dist[x] - 1] for x in range(g.n)]


@dataclass(frozen=True)
class TreelikeReport:
    """Per-vertex witnesses: witness[y] is a child x with y as unique parent, or None."""

    treelike: bool
    witnesses: tuple[int | None, ...]


def is_treelike(g: RootedGraph) -> TreelikeReport:
    """Does every vertex have a child of which it is the only parent?

    y lies on all shortest x-to-root paths iff dist(x) = dist(y) + 1 and y
    is x's unique predecessor in the BFS DAG. The root is included in the
    test; any depth-1 neighbor witnesses it, since the root is its unique
    predecessor.
    """
    preds = _preds(g)
    witnesses: list[int | None] = [None] * g.n
    for y in range(g.n):
        for x in g.adj[y]:
            if preds[x] == [y]:
                witnesses[y] = x
                break
    return TreelikeReport(all(w is not None for w in witnesses), tuple(witnesses))


@dataclass(frozen=True)
class ForestExtraction:
    """The spanning forest of unique-parent edges, plus its components."""

    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]


def extract_forest(g: RootedGraph) -> ForestExtraction:
    """Edges yx with y on all shortest x-to-root paths; verified acyclic and spanning.

    The components are the classes of ``trees._union_find`` over those edges,
    which also names the first edge whose ends already share a class: a cycle.
    """
    edges = [(min(x, ys[0]), max(x, ys[0])) for x, ys in enumerate(_preds(g)) if len(ys) == 1]
    closing, find = _union_find(g.n, edges)
    if closing >= 0:
        raise AssertionError("forest extraction produced a cycle")
    members: dict[int, list[int]] = {}
    for v in range(g.n):  # ascending, so classes come in order of their least vertex
        members.setdefault(find(v), []).append(v)
    return ForestExtraction(tuple(sorted(edges)), tuple(map(tuple, members.values())))


def _component_tree(g: ForestExtraction, members: tuple[int, ...]) -> Tree:
    local = {v: i for i, v in enumerate(members)}
    return Tree(len(members), _build_adjacency(len(members), [(local[u], local[v]) for u, v in g.edges if u in local and v in local]))


def treelike_distinguish(g: RootedGraph) -> Coloring | None:
    """Color F's components admissibly and pairwise inequivalently, then verify.

    The root's component admits distinguishing sets in which every chosen
    vertex other than the root keeps a neighbor outside the set (any set at
    all when the root has degree 1); other components require that of every
    chosen vertex. Each component takes the first such mask, in ascending
    order, whose colored key (one center analysis per component, one id
    table per call) no earlier component has taken. The union is accepted
    only if no non-identity graph automorphism preserves it. The search is
    read once and kept nowhere, and drained to its end, so a group past the
    limit raises whatever the outcome. Absence is a valid outcome: the
    procedure's guarantee needs infinite components, so here it is exploratory.
    """
    if g.n > MAX_GRAPH_VERTICES:
        raise ValueError(f"n = {g.n} exceeds cap {MAX_GRAPH_VERTICES}")
    identity = tuple(range(g.n))
    others = (sigma for sigma in _graph_search(g.adj, None, _GRAPH_AUT_LIMIT, None) if sigma != identity)
    first = next(others, None)
    if first is None:
        return Coloring(g.n, 0)
    colors = _forest_colors(g)
    kept = colors is None or any([colors[y] for y in sigma] == colors for sigma in chain((first,), others))
    deque(others, 0)  # a search past the limit raises here
    return None if kept else _to_coloring(colors)


def _forest_colors(g: RootedGraph) -> list[str | None] | None:
    """Each component's first admissible mask with an untaken colored key, as bits() characters; None if one has none."""
    forest = extract_forest(g)
    adjsets = [set(a) for a in g.adj]
    table: dict = {}
    taken: set[tuple[int, ...]] = set()
    colors: list[str | None] = [None] * g.n
    root_deg = len(g.adj[g.root])
    for members in sorted(forest.components, key=lambda ms: (g.root not in ms, ms)):
        an = TreeAnalysis.at_center(_component_tree(forest, members))
        holds_root = g.root in members
        for local in range(1 << len(members)):
            bits = format(local, f"0{len(members)}b")[::-1]
            key = _colored_key(an, bits, table)
            if key is not None and key not in taken and _admissible(bits, members, adjsets, holds_root, root_deg):
                break
        else:
            return None
        taken.add(key)
        for v, ch in zip(members, bits):
            colors[v] = ch
    return colors


def _admissible(bits: str, members, adjsets, holds_root: bool, root_deg: int) -> bool:
    """Buried = a chosen vertex with no in-component neighbor outside the set.

    Root component: any set when the root has degree 1, else at most one
    buried vertex. Other components: no buried vertex at all.
    """
    if holds_root and root_deg == 1:
        return True
    inside = {v for v, ch in zip(members, bits) if ch == "1"}
    outside = set(members) - inside
    buried = sum(1 for v in inside if not adjsets[v] & outside)
    return buried <= (1 if holds_root else 0)
