"""Reference implementations: the slow or earlier paths each fast kernel is checked against.

One per kernel, each written once. Where a kernel had several generations, the one kept is
the farthest from the fast path: the oracle, or the spec-level computation one root or one
vertex at a time. ``scripts/mutants.py`` records which planted faults the tests built on
these references catch.
"""

import argparse
import random
from collections import deque
from itertools import groupby, product
from math import comb, factorial

from treesym import (
    AutomorphismLimitExceeded,
    Coloring,
    ConjectureReport,
    CorpusSpec,
    EdgeCenter,
    EdgeListParseError,
    ForestExtraction,
    LobeAssignmentError,
    OracleSizeError,
    RootedGraph,
    Tree,
    VertexCenter,
    all_trees,
    asym_unrooted,
    brute_graph_aut,
    caterpillar,
    corpus as corpus_module,
    enumerate_automorphisms,
    kary_tree,
    lobed_extremal,
    root_at,
    serialize_edge_list,
    spider,
    subtree_codes,
    treelike,
    unrooted_code,
    verify_distinguishing,
)
from treesym.asym import _a_product, a_by_class, asym_of
from treesym.autom import ASYMMETRIC, Motion, aut_order_of, motion_of
from treesym.canon import TreeAnalysis, _toward_center, colored_subtree_codes, colored_unrooted_code
from treesym.coloring import _to_coloring, _unrank_into, _whiten_branch, combinadic_unrank, distinguishes
from treesym.corpus import SuiteReport, TreeRecord, random_tree
from treesym.oracle import DEFAULT_AUT_LIMIT, MAX_ORACLE_VERTICES, OrbitReport
from treesym.treelike import extract_forest
from treesym.trees import _check_root


# -- trees: centers, rootings and coloring bits --


def reference_center(t: Tree):
    """The previous peel: a removed table, and a final scan for the vertices left."""
    n = t.n
    if n == 1:
        return VertexCenter(0)
    deg = [len(a) for a in t.adj]
    removed = [False] * n
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for u in layer:
            removed[u] = True
            for v in t.adj[u]:
                if not removed[v]:
                    deg[v] -= 1
                    if deg[v] == 1:
                        nxt.append(v)
        remaining -= len(layer)
        layer = nxt
    live = sorted(v for v in range(n) if not removed[v])
    return VertexCenter(live[0]) if len(live) == 1 else EdgeCenter(*live)


def reference_root_at(t, w):
    """The queue-based rooting that ``root_at`` replaced: (parent, children, subtree_size, bfs_order)."""
    parent = [None] * t.n
    children = [()] * t.n
    order = []
    queue = deque([w])
    seen = [False] * t.n
    seen[w] = True
    while queue:
        u = queue.popleft()
        order.append(u)
        kids = tuple(v for v in t.adj[u] if not seen[v])
        children[u] = kids
        for v in kids:
            seen[v] = True
            parent[v] = u
            queue.append(v)
    size = [1] * t.n
    for u in reversed(order):
        for v in children[u]:
            size[u] += size[v]
    return tuple(parent), tuple(children), tuple(size), tuple(order)


def reference_bits(c: Coloring) -> str:
    return "".join("1" if c.mask >> v & 1 else "0" for v in range(c.n))


def reference_mask(bits: str) -> int:
    mask = 0
    for v, ch in enumerate(bits):
        if ch == "1":
            mask |= 1 << v
    return mask


# -- the edge-list reader and both parsers, with their own copies of the helpers --


REFERENCE_MAX_INPUT_DIGITS = 4300


REFERENCE_ECHO_CHARS = 40


def reference_cut(x, show=str) -> str:
    text = str(x)
    if len(text) <= REFERENCE_ECHO_CHARS:
        return show(text)
    return f"{show(text[:REFERENCE_ECHO_CHARS])}... (cut, {len(text)} characters)"


def reference_parse_int(token: str) -> int:
    if len(token) > REFERENCE_MAX_INPUT_DIGITS:
        raise ValueError(f"integer longer than {REFERENCE_MAX_INPUT_DIGITS} characters")
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not a plain decimal: {token!r}")
    return int(token)


def reference_check_edge(n, u, v, seen):
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(
            f"vertex id out of range 0..{reference_cut(n - 1)} in edge ({reference_cut(u)}, {reference_cut(v)})"
        )
    if u == v:
        raise ValueError(f"self-loop at vertex {reference_cut(u)}")
    key = (u, v) if u < v else (v, u)
    if key in seen:
        raise ValueError(f"duplicate edge ({reference_cut(key[0])}, {reference_cut(key[1])})")
    seen.add(key)


def reference_adjacency(n, edges):
    seen = set()
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        reference_check_edge(n, u, v, seen)
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(a)) for a in nbrs)


def reference_reached(adj, start):
    seen = {start}
    order = [start]
    for u in order:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return len(order)


def reference_read_edge_lines(text):
    lines = text.splitlines()
    header_idx = None
    n = None
    for i, raw in enumerate(lines):
        if raw.strip() == "":
            continue
        try:
            n = reference_parse_int(raw.strip())
        except ValueError:
            raise EdgeListParseError(f"expected vertex count, got {reference_cut(raw.strip(), repr)}", i + 1)
        header_idx = i
        break
    if n is None:
        raise EdgeListParseError("empty input: expected vertex count on first line")
    if n <= 0:
        raise EdgeListParseError("vertex count must be at least 1", header_idx + 1)
    out = []
    seen = set()
    for i in range(header_idx + 1, len(lines)):
        raw = lines[i].strip()
        if raw == "":
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'u v', got {reference_cut(raw, repr)}", i + 1)
        try:
            u, v = reference_parse_int(parts[0]), reference_parse_int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer vertex id in {reference_cut(raw, repr)}", i + 1)
        try:
            reference_check_edge(n, u, v, seen)
        except ValueError as exc:
            raise EdgeListParseError(str(exc), i + 1) from None
        out.append((i + 1, u, v))
    return n, out


def reference_parse_edge_list(text):
    n, rows = reference_read_edge_lines(text)
    if len(rows) < n - 1:
        raise EdgeListParseError(f"edge count {len(rows)} != n-1 = {n - 1}")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for line_no, u, v in rows:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise EdgeListParseError(f"cycle detected at edge ({u}, {v})", line_no)
        parent[ru] = rv
        edges.append((u, v))
    # Tree.from_edges as it was: count, per-edge checks, connectivity
    if len(edges) != n - 1:
        raise ValueError(f"edge count {len(edges)} != n-1 = {n - 1}")
    adj = reference_adjacency(n, edges)
    if reference_reached(adj, 0) != n:
        raise ValueError("edges do not form a connected tree")
    return Tree(n, adj)


def reference_parse_graph_edge_list(text, root=0):
    n, rows = reference_read_edge_lines(text)
    if len(rows) < n - 1:
        raise EdgeListParseError("graph is disconnected")
    # RootedGraph.from_edges as it was: root range, per-edge checks, connectivity
    if not (0 <= root < n):
        raise ValueError(f"root {root} out of range 0..{n - 1}")
    adj = reference_adjacency(n, [(u, v) for _, u, v in rows])
    if reference_reached(adj, root) != n:
        raise ValueError("graph is disconnected")
    return RootedGraph(n, adj, root)


# -- canonical codes and the class-id analysis --


def reference_subtree_codes(rt) -> tuple[bytes, ...]:
    """``subtree_codes`` with its own loop, before the colored codes shared it (the reference)."""
    codes: list[bytes] = [b""] * rt.tree.n
    interned: dict[bytes, bytes] = {}
    for v in reversed(rt.bfs_order):
        kids = rt.children[v]
        if not kids:
            raw = b"()"
        else:
            raw = b"(" + b"".join(sorted(codes[c] for c in kids)) + b")"
        codes[v] = interned.setdefault(raw, raw)
    return tuple(codes)


def reference_analysis(rt, cut=None):
    """The ``TreeAnalysis.of`` that sorted and mapped every key and grouped runs with ``groupby``.

    Returns (roots, children, ids, sigs, reps).
    """
    children = list(rt.children)
    roots = (rt.root,)
    if cut is not None:
        children[rt.root] = tuple(c for c in children[rt.root] if c != cut)
        roots = (rt.root, cut)
    ids = [0] * rt.tree.n
    index = {}
    sigs = []
    reps = []
    cls = ids.__getitem__
    for x in reversed(rt.bfs_order):
        kids = children[x]
        if len(kids) > 1:
            kids = children[x] = tuple(sorted(kids, key=cls))
        key = tuple(map(cls, kids))
        cid = index.get(key)
        if cid is None:
            cid = index[key] = len(sigs)
            sigs.append(tuple((k, len(list(run))) for k, run in groupby(key)))
            reps.append(x)
        ids[x] = cid
    return roots, tuple(children), tuple(ids), tuple(sigs), tuple(reps)


def reference_unrooted_code(t: Tree) -> bytes:
    """The code as written before it read the center ends from ``center``: through the center analysis."""
    return min(subtree_codes(root_at(t, w))[w] for w in TreeAnalysis.at_center(t).roots)


def reference_colored_unrooted_code(t: Tree, coloring: Coloring) -> bytes:
    return min(colored_subtree_codes(root_at(t, w), coloring)[w] for w in TreeAnalysis.at_center(t).roots)


# -- class values over run tables --


def reference_a_product(a, pairs):
    acc = 2
    for k, mu in pairs:
        acc *= comb(a[k], mu)
        if acc == 0:
            break
    return acc


def reference_aut_product(vals, sig):
    acc = 1
    for k, mu in sig:
        acc *= factorial(mu) * vals[k] ** mu
    return acc


def reference_by_class(an, product):
    vals = []
    for sig in an.sigs:
        vals.append(product(vals, sig))
    return vals


# -- the center's branches, case by case --


def reference_asym_of(an, a):
    if len(an.roots) == 1:
        return a[an.ids[an.roots[0]]]
    a_u, a_v = (a[an.ids[r]] for r in an.roots)
    return comb(a_u, 2) if an.iso_halves else a_u * a_v


def reference_aut_order_of(an):
    vals = reference_by_class(an, reference_aut_product)
    order = 1
    for r in an.roots:
        order *= vals[an.ids[r]]
    return 2 * order if an.iso_halves else order


def reference_motion_of(an):
    size = an.rt.subtree_size
    candidates = [2 * size[an.reps[k]] for sig in an.sigs for k, mu in sig if mu >= 2]
    if an.iso_halves:
        candidates.append(an.rt.tree.n)
    return Motion(min(candidates)) if candidates else ASYMMETRIC


def reference_unrank_of(an, a, index):
    total = reference_asym_of(an, a)
    if not (0 <= index < total):
        raise IndexError(f"index {index} out of range [0, {total})")
    colors = [None] * an.rt.tree.n
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


# -- rooted numbers and the conjecture check, root by root --


def reference_asym_rooted(rt) -> int:
    an = TreeAnalysis.of(rt)
    return asym_of(an, a_by_class(an))


def reference_aut_order_rooted(rt) -> int:
    return aut_order_of(TreeAnalysis.of(rt))


def reference_conjecture_check(t: Tree) -> ConjectureReport:
    violation = None
    for w in range(t.n):
        an = TreeAnalysis.of(root_at(t, w))
        a = a_by_class(an)
        mu = dict(an.sigs[an.ids[w]])
        for x in an.rt.children[w]:
            k = an.ids[x]
            if mu[k] > a[k]:
                violation = (w, x, mu[k], a[k])
                break
        if violation:
            break
    local_ok = violation is None
    dist = asym_unrooted(t) > 0
    return ConjectureReport(local_ok == dist, local_ok, dist, violation)


def reference_exact_conjecture_check(t: Tree) -> ConjectureReport:
    """``conjecture_check`` on the exact b(x) of every vertex, before its values were capped."""
    an = TreeAnalysis.at_center(t)
    a = a_by_class(an)
    b = _toward_center(an, a, _a_product)
    ids, sigs, parent, roots = an.ids, an.sigs, an.rt.parent, an.roots
    violation = None
    for w in range(t.n):
        if not (a[ids[w]] and b[w]):
            mu = dict(sigs[ids[w]])
            ks = ((x, 1, b[w]) if x == parent[w] or x in roots else (x, mu[ids[x]], a[ids[x]]) for x in t.adj[w])
            violation = next((w, x, m, a_x) for x, m, a_x in ks if m > a_x)
            break
    local_ok = violation is None
    dist = asym_of(an, a) > 0
    return ConjectureReport(local_ok == dist, local_ok, dist, violation)


# -- unranking, colored ids, verification, the ray extension, DOT and colored codes --


def reference_combinadic_unrank(rank, universe, k):
    """The binary-search decoder for every k, kept as the reference."""
    if k < 0 or universe < 0 or rank < 0 or rank >= comb(universe, k):
        raise ValueError(f"rank {rank} out of range for C({universe}, {k})")
    out = []
    hi = universe - 1
    for i in range(k, 0, -1):
        lo = i - 1
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


def reference_verify_pinned(t, coloring, w):
    """The pinned check that analysed the rooting at the pin, kept as the reference."""
    if coloring.n != t.n:
        raise ValueError("coloring length does not match tree")
    return distinguishes(TreeAnalysis.of(root_at(t, w)), coloring)


def reference_unrank_into(an, a, x, index, colors, order=None):
    """The unranking kernel that decoded every digit through ``combinadic_unrank``, kept as the reference."""
    stack = [(x, index)]
    while stack:
        v, k = stack.pop()
        colors[v] = "0" if k & 1 else "1"
        k >>= 1
        kids = an.children[v]
        runs = an.sigs[an.ids[v]]
        if k and order and len(runs) > 1:
            runs, kids = order(runs, kids)
        pos = 0
        for c, mu in runs:
            cap = comb(a[c], mu)
            digit = k % cap
            k //= cap
            chosen = combinadic_unrank(digit, a[c], mu)
            stack.extend(zip(kids[pos : pos + mu], chosen))
            pos += mu
        if k:
            raise AssertionError("index not fully consumed")


def reference_colored_ids(an, colors, top, table):
    """The colored-id kernel that walked one BFS per branch into a dict, kept as the reference."""
    order = [top]
    for v in order:
        order.extend(an.children[v])
    ids = {}
    collide = False
    for v in reversed(order):
        kids = sorted(ids[c] for c in an.children[v])
        if len(kids) > 1 and len(set(kids)) < len(kids):
            collide = True
        ids[v] = table.setdefault((colors[v], *kids), len(table))
    return ids, collide


def reference_colored_key(an, coloring, table):
    """Sorted colored ids of the roots, one branch walk per root, or None (the reference)."""
    colors = coloring.bits()
    top_ids = []
    for r in an.roots:
        ids, collide = reference_colored_ids(an, colors, r, table)
        if collide:
            return None
        top_ids.append(ids[r])
    if len(top_ids) == 2 and top_ids[0] == top_ids[1]:
        return None
    return tuple(sorted(top_ids))


def reference_extend_ray_coloring(tr, ray_colors):
    """The previous extension: one rooting at v_i, cut at v_{i+1}, per ray vertex v_1..v_D."""
    tree = tr.tree
    ray = tr.ray
    ray_colors = tuple(bool(b) for b in ray_colors)
    if len(ray_colors) != len(ray):
        raise ValueError("ray coloring length must match the ray")
    colors = [None] * tree.n
    for v, black in zip(ray, ray_colors):
        colors[v] = "1" if black else "0"

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
                table = {}
                back_id = reference_colored_ids(an, colors, back, table)[0][back]
                next_index = 0
                for m in others:
                    while True:
                        reference_unrank_into(an, a, m, next_index, colors)
                        next_index += 1
                        if reference_colored_ids(an, colors, m, table)[0][m] != back_id:
                            break
            else:
                if avail < cls.multiplicity:
                    raise LobeAssignmentError(v_i, cls.rep, cls.multiplicity, avail)
                if cls.multiplicity == 1 and avail == 1 << an.rt.subtree_size[cls.rep]:
                    _whiten_branch(an, cls.rep, colors)
                    continue
                for j, m in enumerate(cls.members):
                    reference_unrank_into(an, a, m, j, colors)

    result = _to_coloring(colors)
    if not verify_distinguishing(tree, result, pinned=ray[-1]):
        raise AssertionError("extended coloring is not distinguishing")
    return result


def reference_lobes(tree, ray):
    """The lobes by one DFS over the non-ray edges from each ray vertex (the reference)."""
    ray_edges = {frozenset(e) for e in zip(ray, ray[1:])}
    comp = [-1] * tree.n
    lobes = []
    for i, anchor in enumerate(ray):
        assert comp[anchor] == -1
        stack, members = [anchor], [anchor]
        comp[anchor] = i
        while stack:
            u = stack.pop()
            for w in tree.adj[u]:
                if frozenset((u, w)) not in ray_edges and comp[w] == -1:
                    comp[w] = i
                    members.append(w)
                    stack.append(w)
        lobes.append(tuple(sorted(members)))
    assert -1 not in comp
    return tuple(lobes)


def reference_to_dot(t: Tree, coloring: Coloring | None = None) -> str:
    """``to_dot`` with one ``is_black`` mask shift per vertex."""
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


def reference_colored_subtree_codes(rt, coloring: Coloring) -> tuple[bytes, ...]:
    """``colored_subtree_codes`` with one ``is_black`` mask shift per vertex."""
    codes: list[bytes] = [b""] * rt.tree.n
    for v in reversed(rt.bfs_order):
        col = b"1" if coloring.is_black(v) else b"0"
        codes[v] = b"(" + col + b"".join(sorted(codes[c] for c in rt.children[v])) + b")"
    return tuple(codes)


# -- the automorphism search and the oracle's census --


def reference_automorphisms(adj, limit=None, pinned=None, forced=None):
    """``brute_graph_aut`` before the shared backtracker: one recursion level per vertex in BFS order, each image
    unused, of the vertex's degree and adjacent to the images of its mapped neighbours, no leaf levels and no pruning
    by forced images. Yields the first ``limit`` automorphisms, then raises AutomorphismLimitExceeded if more exist."""
    n = len(adj)
    if pinned is not None:
        _check_root(n, pinned)
    adjsets = [set(a) for a in adj]
    deg = [len(a) for a in adj]
    start = pinned if pinned is not None else 0
    order, par = [start], {start: -1}
    for u in order:
        for v in adj[u]:
            if v not in par:
                par[v] = u
                order.append(v)
    if len(order) != n:
        raise ValueError("graph must be connected")
    forced = dict(forced or {})
    if pinned is not None:
        forced[pinned] = pinned

    mapping = [-1] * n
    used = [False] * n
    out = []

    def consistent(v, y):
        if deg[y] != deg[v]:
            return False
        want = forced.get(v)
        if want is not None and want != y:
            return False
        for z in adj[v]:
            mz = mapping[z]
            if mz >= 0 and mz not in adjsets[y]:
                return False
        return True

    def rec(k):
        if k == n:
            if limit is not None and len(out) == limit:
                raise AutomorphismLimitExceeded(limit)
            out.append(tuple(mapping))
            return
        v = order[k]
        pool = range(n) if k == 0 else adj[mapping[par[v]]]
        for y in pool:
            if not used[y] and consistent(v, y):
                mapping[v] = y
                used[y] = True
                rec(k + 1)
                used[y] = False
                mapping[v] = -1

    try:
        rec(0)
    except AutomorphismLimitExceeded:
        yield from out
        raise
    yield from out


def _reference_moved(sigma):
    return sum(1 for i, y in enumerate(sigma) if i != y)


def _mask_images(sigma):
    return [1 << y for y in sigma]


def _apply_table(tbl, mask):
    out = 0
    while mask:
        low = mask & -mask
        out |= tbl[low.bit_length() - 1]
        mask ^= low
    return out


def reference_brute_asym(t, pinned=None, aut_limit=DEFAULT_AUT_LIMIT):
    """brute_asym as it was written before the shared automorphism budget and the direct permutation reads.

    It has its own try around the list and keeps one image table per automorphism.
    """
    if t.n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"n = {t.n} exceeds oracle cap {MAX_ORACLE_VERTICES}")
    try:
        auts = list(enumerate_automorphisms(t, limit=aut_limit, pinned=pinned))
    except AutomorphismLimitExceeded as exc:
        raise OracleSizeError(str(exc)) from exc
    auts.sort(key=_reference_moved)
    tables = [_mask_images(s) for s in auts[1:]]
    dist_count = 0
    reps = []
    for mask in range(1 << t.n):
        if any(_apply_table(tbl, mask) == mask for tbl in tables):  # a non-identity automorphism fixes it
            continue
        dist_count += 1
        if not any(_apply_table(tbl, mask) < mask for tbl in tables):  # the least of its orbit
            reps.append(mask)
    return OrbitReport(t.n, 1 << t.n, dist_count, len(reps), len(auts), tuple(reps))


def reference_brute_motion(t, aut_limit=DEFAULT_AUT_LIMIT):
    """brute_motion as it was written before the shared automorphism budget: its own try around the scan."""
    best = None
    try:
        for sigma in enumerate_automorphisms(t, limit=aut_limit):
            moved = _reference_moved(sigma)
            if moved and (best is None or moved < best):
                best = moved
    except AutomorphismLimitExceeded as exc:
        raise OracleSizeError(str(exc)) from exc
    return ASYMMETRIC if best is None else Motion(best)


# -- generators and the theorem suite --


def reference_pruefer_edges(n, seq):
    """The quadratic decoder (rescan for the smallest leaf), kept as the reference."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    deg = [1] * n
    for a in seq:
        deg[a] += 1
    edges = []
    for a in seq:
        for j in range(n):
            if deg[j] == 1:
                edges.append((a, j))
                deg[a] -= 1
                deg[j] -= 1
                break
    u, v = (j for j in range(n) if deg[j] == 1)
    edges.append((u, v))
    return edges


def reference_generate(spec: CorpusSpec):
    """generate() as it was written before the family table: one presence check per family."""
    families = ("random-prufer", "all-trees", "kary", "caterpillar", "lobed-extremal", "spider")
    if spec.family not in families:
        raise ValueError(f"unknown family {spec.family!r}; expected one of {families}")
    if spec.family == "all-trees":
        if spec.n is None:
            raise ValueError("all-trees requires n")
        yield from all_trees(spec.n)
        return
    if spec.family == "lobed-extremal":
        if spec.m is None:
            raise ValueError("lobed-extremal requires m")
        yield lobed_extremal(spec.m)
        return
    if spec.family == "kary":
        if spec.n is None or spec.arity is None:
            raise ValueError("kary requires n and arity")
        yield kary_tree(spec.n, spec.arity)
        return
    if spec.family == "spider":
        if spec.n is None or spec.arity is None:
            raise ValueError("spider requires n and arity")
        yield spider(spec.n, spec.arity)
        return
    if spec.n is None:
        raise ValueError(f"{spec.family} requires n")
    count = spec.count if spec.count is not None else 1
    rng = random.Random(spec.seed)
    for _ in range(count):
        if spec.family == "random-prufer":
            yield random_tree(rng, spec.n)
        else:
            yield caterpillar(spec.n, rng)


def reference_spider(n: int, legs: int) -> Tree:
    """The previous leg-by-leg build: each leg a path from the center, the first ``extra`` one longer."""
    base, extra = divmod(n - 1, legs)
    edges = []
    nxt = 1
    for i in range(legs):
        length = base + (1 if i < extra else 0)
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree.from_edges(n, edges)


def reference_run_theorem_suite(trees) -> SuiteReport:
    """The suite with one ``record`` closure per tree, which appends each outcome and counterexample as it goes.

    Kept as the reference. It reads ``construct_of``, ``a_at_root`` and ``GroupOrderBound``
    through the corpus module, so a test that patches them there patches both suites.
    """
    report = SuiteReport()
    for t in trees:
        an = TreeAnalysis.at_center(t)
        a_cls = a_by_class(an)
        mot = motion_of(an)
        aut = aut_order_of(an)
        a = asym_of(an, a_cls)
        checks: list[tuple[str, str]] = []

        def record(name: str, passed: bool):
            checks.append((name, "pass" if passed else "fail"))
            if not passed:
                report.counterexamples.append({"check": name, "tree": serialize_edge_list(t)})

        def check_construct():
            record("construct-verifies", corpus_module.construct_of(an, a_cls) is not None)

        if mot.is_asymmetric:
            hypothesis = "vacuous-asymmetric"
            record("asymmetric-a-equals-2^n", a == 1 << t.n)
            check_construct()
        else:
            m = mot.moved
            threshold = 1 << (m // 2)
            if t.delta <= threshold:
                hypothesis = "met"
                record("two-distinguishable", a > 0)
                check_construct()
                for w in an.roots:
                    if t.degree(w) < threshold:
                        record("rooted-lower-bound", corpus_module.a_at_root(an, a_cls, w) >= 2 * threshold)
            else:
                hypothesis = "not-met"
                checks.append(("two-distinguishable", "skip"))
        if a > 0:
            record("group-order-bound", corpus_module.GroupOrderBound.of(t.n, aut, a).holds)
            if aut == 1:
                record("group-order-bound-equality", aut * a == 1 << t.n)
        report.records.append(TreeRecord(t.n, t.delta, mot.to_json(), aut, a, hypothesis, tuple(checks)))
    return report


# -- tree-like graphs: the forest and the search --


def reference_extract_forest(g: RootedGraph) -> ForestExtraction:
    """The previous extraction: one scan of all forest edges per component."""
    preds = treelike._preds(g)
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
    for members in components:
        inside = sum(1 for u, v in edges if comp[u] == comp[v] == comp[members[0]])
        if inside != len(members) - 1:
            raise AssertionError("forest extraction produced a cycle")
    return ForestExtraction(tuple(sorted(edges)), tuple(components))


def reference_treelike_distinguish(g: RootedGraph) -> Coloring | None:
    """The previous search: re-verify and bytes-code every mask tried, codes kept per shape."""
    auts = brute_graph_aut(g.adj)
    if len(auts) == 1:
        return Coloring(g.n, 0)
    forest = extract_forest(g)
    adjsets = [set(a) for a in g.adj]
    chosen_masks = []
    used_codes: dict[bytes, set[bytes]] = {}
    root_deg = len(g.adj[g.root])
    for members in sorted(forest.components, key=lambda ms: (g.root not in ms, ms)):
        local = {v: i for i, v in enumerate(members)}
        tree = Tree.from_edges(len(members), [(local[u], local[v]) for u, v in forest.edges if u in local and v in local])
        holds_root = g.root in local
        taken = used_codes.setdefault(unrooted_code(tree), set())
        pick = None
        for mask in range(1 << tree.n):
            cand = Coloring(tree.n, mask)
            if not verify_distinguishing(tree, cand):
                continue
            if not reference_admissible(cand, members, adjsets, holds_root, root_deg):
                continue
            code = colored_unrooted_code(tree, cand)
            if code in taken:
                continue
            pick = (cand, code)
            break
        if pick is None:
            return None
        taken.add(pick[1])
        chosen_masks.append((members, pick[0].mask))
    mask = 0
    for members, local_mask in chosen_masks:
        for i, v in enumerate(members):
            if local_mask >> i & 1:
                mask |= 1 << v
    for sigma in auts:
        if all(sigma[i] == i for i in range(g.n)):
            continue
        image = 0
        for v in range(g.n):
            if mask >> v & 1:
                image |= 1 << sigma[v]
        if image == mask:
            return None
    return Coloring(g.n, mask)


def reference_admissible(cand, members, adjsets, holds_root, root_deg):
    if holds_root and root_deg == 1:
        return True
    member_set = set(members)
    inside = {v for i, v in enumerate(members) if cand.is_black(i)}
    buried = sum(1 for v in inside if not any(w in member_set and w not in inside for w in adjsets[v]))
    return buried <= 1 if holds_root else buried == 0


# -- the command line's parser and corpus arguments --


def reference_build_parser():
    """The CLI parser as it was built before the family loop: one hand-written flag per corpus family."""
    from treesym import cli

    parser = argparse.ArgumentParser(
        prog="treesym",
        description="Symmetry invariants of finite trees and distinguishing 2-colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for one tree")
    p.add_argument("file", help="edge-list file or - for stdin")
    p.add_argument("--json", action="store_true")
    p.add_argument("--root", type=int, default=None, help="also report a(T,w) for this root")
    p.add_argument("--all-roots", action="store_true", help="report a(T,w) for every root")
    p.set_defaults(func=cli.cmd_analyze)

    p = sub.add_parser("color", help="emit distinguishing colorings")
    p.add_argument("file")
    p.add_argument("--index", type=int, default=0, help="class index to unrank (default 0)")
    p.add_argument("--count", type=int, default=None, help="emit classes 0..count-1 instead")
    p.add_argument("--root", type=int, default=None, help="color the rooted tree (T,w)")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of 0/1 strings")
    p.set_defaults(func=cli.cmd_color)

    p = sub.add_parser("verify", help="check whether a coloring is distinguishing")
    p.add_argument("file")
    p.add_argument("--coloring", required=True, help="0/1 string in vertex order")
    p.add_argument("--pin", type=int, default=None, help="only automorphisms fixing this vertex")
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("oracle", help="brute-force orbit census (n <= 16)")
    p.add_argument("file")
    p.set_defaults(func=cli.cmd_oracle)

    p = sub.add_parser("corpus", help="generate tree families and run the property suite")
    p.add_argument("--all-trees", type=int, default=None, metavar="N")
    p.add_argument("--random-prufer", type=int, default=None, metavar="N")
    p.add_argument("--caterpillar", type=int, default=None, metavar="N")
    p.add_argument("--lobed-extremal", type=int, default=None, metavar="M")
    p.add_argument("--kary", type=int, nargs=2, default=None, metavar=("N", "ARITY"))
    p.add_argument("--spider", type=int, nargs=2, default=None, metavar=("N", "ARITY"))
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true", help="run the theorem and conjecture suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_corpus)

    p = sub.add_parser("treelike", help="tree-like test, forest extraction, distinguishing")
    p.add_argument("file")
    p.add_argument("--root", type=int, default=0)
    p.set_defaults(func=cli.cmd_treelike)

    return parser


def reference_corpus_spec(args) -> CorpusSpec:
    """_corpus_spec as it was written before the family loop: one branch per family, in precedence order."""
    if args.all_trees is not None:
        return CorpusSpec("all-trees", n=args.all_trees)
    if args.random_prufer is not None:
        return CorpusSpec("random-prufer", n=args.random_prufer, count=args.count, seed=args.seed)
    if args.caterpillar is not None:
        return CorpusSpec("caterpillar", n=args.caterpillar, count=args.count, seed=args.seed)
    if args.lobed_extremal is not None:
        return CorpusSpec("lobed-extremal", m=args.lobed_extremal)
    if args.kary is not None:
        return CorpusSpec("kary", n=args.kary[0], arity=args.kary[1])
    if args.spider is not None:
        return CorpusSpec("spider", n=args.spider[0], arity=args.spider[1])
    raise EdgeListParseError("choose a corpus family (e.g. --all-trees 8)")
