"""Finite tree-like graph analysis: witness test, spanning forest, distinguishing.

A rooted graph is tree-like when every vertex y has a neighbor x such that y
lies on all shortest x-to-root paths, i.e. a child of which it is the only
parent in the BFS shortest-path DAG. The edges realizing that condition form
a forest F; the distinguishing procedure colors F's components pairwise
inequivalently under admissibility restrictions and then verifies the union
against the brute-force automorphism list. On finite inputs success is
verified, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import TreeAnalysis
from .coloring import _colored_key
from .oracle import MAX_GRAPH_VERTICES, _apply, _moved, brute_graph_aut
from .trees import Coloring, EdgeListParseError, Tree, _adjacency, _bfs, _build_adjacency, _check_root, read_edge_lines


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
    n, edges, _ = read_edge_lines(text)
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
    """Edges yx with y on all shortest x-to-root paths; verified acyclic and spanning."""
    preds = _preds(g)
    edges = []
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for x in range(g.n):
        if len(preds[x]) == 1:
            y = preds[x][0]
            edges.append((min(x, y), max(x, y)))
            nbrs[x].append(y)
            nbrs[y].append(x)
    comp = [-1] * g.n
    components = []
    for v in range(g.n):
        if comp[v] != -1:
            continue
        cid = len(components)
        comp[v] = cid
        stack = [v]
        members = [v]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if comp[w] == -1:
                    comp[w] = cid
                    members.append(w)
                    stack.append(w)
        components.append(tuple(sorted(members)))
    inside = [0] * len(components)
    for u, _ in edges:  # both ends of a forest edge lie in one component
        inside[comp[u]] += 1
    if any(e != len(members) - 1 for e, members in zip(inside, components)):
        raise AssertionError("forest extraction produced a cycle")
    return ForestExtraction(tuple(sorted(edges)), tuple(components))


def _component_tree(g: ForestExtraction, members: tuple[int, ...]) -> Tree:
    local = {v: i for i, v in enumerate(members)}
    return Tree.from_edges(len(members), [(local[u], local[v]) for u, v in g.edges if u in local and v in local])


def treelike_distinguish(g: RootedGraph) -> Coloring | None:
    """Color F's components admissibly and pairwise inequivalently, then verify.

    The root's component admits distinguishing sets in which every chosen
    vertex other than the root keeps a neighbor outside the set (any set at
    all when the root has degree 1); other components require that of every
    chosen vertex. Each component takes the first such mask, in ascending
    order, whose colored key (one center analysis per component, one id
    table per call) no earlier component has taken. The union is accepted
    only if no non-identity graph automorphism preserves it. Absence is a
    valid outcome: the procedure's guarantee needs infinite components, so
    here it is exploratory.
    """
    if g.n > MAX_GRAPH_VERTICES:
        raise ValueError(f"n = {g.n} exceeds cap {MAX_GRAPH_VERTICES}")
    auts = brute_graph_aut(g.adj)
    if len(auts) == 1:
        return Coloring(g.n, 0)
    forest = extract_forest(g)
    adjsets = [set(a) for a in g.adj]
    table: dict = {}
    taken: set[tuple[int, ...]] = set()
    mask = 0
    root_deg = len(g.adj[g.root])
    for members in sorted(forest.components, key=lambda ms: (g.root not in ms, ms)):
        an = TreeAnalysis.at_center(_component_tree(forest, members))
        holds_root = g.root in members
        for local in range(1 << len(members)):
            cand = Coloring(len(members), local)
            key = _colored_key(an, cand, table)
            if key is not None and key not in taken and _admissible(cand, members, adjsets, holds_root, root_deg):
                break
        else:
            return None
        taken.add(key)
        mask |= _apply(members, local)
    if any(_moved(sigma) and _apply(sigma, mask) == mask for sigma in auts):
        return None
    return Coloring(g.n, mask)


def _admissible(cand: Coloring, members, adjsets, holds_root: bool, root_deg: int) -> bool:
    """Buried = a chosen vertex with no in-component neighbor outside the set.

    Root component: any set when the root has degree 1, else at most one
    buried vertex. Other components: no buried vertex at all.
    """
    if holds_root and root_deg == 1:
        return True
    inside = {v for i, v in enumerate(members) if cand.is_black(i)}
    outside = set(members) - inside
    buried = sum(1 for v in inside if not adjsets[v] & outside)
    return buried <= (1 if holds_root else 0)
