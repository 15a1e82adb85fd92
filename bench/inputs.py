"""Seeded input generators, independent of the generators inside treesym.

Every input the benchmark feeds to treesym is built here from a
``random.Random`` that the caller seeds, so a later change to a treesym
generator cannot change what the benchmark measures. Trees are plain
``(n, edges)`` pairs on ids 0..n-1; ``shuffled`` relabels them by a seeded
permutation because real inputs carry arbitrary vertex ids.
"""

from __future__ import annotations

import heapq
import random

from gate import colored_form


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def spider_edges(n: int, legs: int) -> list[tuple[int, int]]:
    """Vertex 0 with ``legs`` paths of near-equal length, n vertices in all."""
    base, extra = divmod(n - 1, legs)
    edges = []
    nxt = 1
    for i in range(legs):
        prev = 0
        for _ in range(base + (1 if i < extra else 0)):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


def complete_binary_edges(n: int) -> list[tuple[int, int]]:
    """Complete binary tree filled in breadth-first order."""
    return [((v - 1) // 2, v) for v in range(1, n)]


def bounded_random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random tree in which every vertex has at most 2 children (root 0).

    Each new vertex picks its parent uniformly among the vertices that still
    have a free child slot.
    """
    open_slots = [0, 0]
    edges = []
    for v in range(1, n):
        i = rng.randrange(len(open_slots))
        p = open_slots[i]
        open_slots[i] = open_slots[-1]
        open_slots.pop()
        edges.append((p, v))
        open_slots.extend((v, v))
    return edges


def recursive_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random recursive tree: vertex v attaches to a uniform earlier vertex."""
    return [(rng.randrange(v), v) for v in range(1, n)]


def pruefer_sequence(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(n) for _ in range(n - 2)]


def pruefer_edges(seq, n: int) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence (the uniform random labeled tree) with a heap."""
    deg = [1] * n
    for a in seq:
        deg[a] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for a in seq:
        leaf = heapq.heappop(leaves)
        edges.append((a, leaf))
        deg[a] -= 1
        if deg[a] == 1:
            heapq.heappush(leaves, a)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def shuffled(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    """Relabel by a seeded permutation and shuffle edge order and orientation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def edge_list_text(n: int, edges) -> str:
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n"


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def one_ended_truncation_edges(rng: random.Random, ray_len: int) -> tuple[int, list[tuple[int, int]]]:
    """A ray 0..ray_len-1 with twin hanging paths at some ray vertices.

    Each decorated ray vertex carries one or two families of hanging paths
    of order 2 or 3, one family being a pair of twins. Motion is then 4 or 6
    and the maximum degree at most 4, so the extension theorem applies and
    every ray coloring extends.
    """
    edges = path_edges(ray_len)
    nxt = ray_len
    for i in range(1, ray_len):
        if rng.random() < 0.45:
            continue
        chain = rng.choice((2, 2, 3))
        for _ in range(2):
            prev = i
            for _ in range(chain):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
    return nxt, edges


def free_trees(max_n: int) -> list[list[tuple[int, int]]]:
    """Every non-isomorphic free tree with 1..max_n vertices, as edge lists.

    Grows each tree of order k by one leaf in every possible place and keeps
    one tree per canonical form. Meant for max_n <= 10 only.
    """
    intern: dict = {}
    out: list[list[tuple[int, int]]] = [[]]
    level: list[list[tuple[int, int]]] = [[]]
    for n in range(2, max_n + 1):
        seen: dict[tuple, list[tuple[int, int]]] = {}
        for edges in level:
            for p in range(n - 1):
                grown = edges + [(p, n - 1)]
                seen.setdefault(colored_form(adjacency(n, grown), 0, intern)[0], grown)
        level = list(seen.values())
        out.extend(level)
    return out


def random_graph_edges(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Connected simple graph: a random tree plus up to ``extra`` chords."""
    edges = recursive_tree_edges(rng, n)
    present = {(min(u, v), max(u, v)) for u, v in edges}
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in present:
            present.add(key)
            edges.append(key)
    return edges
