"""Tree data model: parsing, serialization, centers, rooting, colorings."""

from __future__ import annotations

from dataclasses import dataclass


class EdgeListParseError(ValueError):
    """Malformed edge-list input. Carries the 1-based offending line, if any."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Tree:
    """Unrooted tree on dense vertex ids 0..n-1.

    Adjacency lists are sorted ascending and symmetric; :meth:`from_edges`
    and ``parse_edge_list`` validate the structure (connected, acyclic, no
    self-loops, no duplicate edges).

    A tree is immutable because its center analysis
    (:meth:`canon.TreeAnalysis.at_center`) is computed once and kept on the
    instance, shared by every public function called on it. The memo is not
    a field, so ``==``, ``hash`` and ``repr`` do not see it, and pickling or
    copying a tree leaves it behind.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __getstate__(self):
        return {"n": self.n, "adj": self.adj}

    @staticmethod
    def from_edges(n: int, edges) -> "Tree":
        if n <= 0:
            raise ValueError("vertex count must be at least 1")
        edges = list(edges)
        if len(edges) != n - 1:
            raise ValueError(f"edge count {len(edges)} != n-1 = {n - 1}")
        adj = _adjacency(n, edges)
        if len(_bfs(adj, 0)[0]) != n:
            raise ValueError("edges do not form a connected tree")
        return Tree(n, adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def delta(self) -> int:
        """Maximum degree."""
        return max(len(a) for a in self.adj)

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


def _edge_fault(n: int, u: int, v: int) -> str:
    if not (0 <= u < n and 0 <= v < n):
        return f"vertex id out of range 0..{_cut(n - 1)} in edge ({_cut(u)}, {_cut(v)})"
    if u == v:
        return f"self-loop at vertex {_cut(u)}"
    return f"duplicate edge ({_cut(min(u, v))}, {_cut(max(u, v))})"  # the one fault left


def _adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Sorted, symmetric adjacency lists of a simple graph, each edge checked."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        if not (0 <= u < n and 0 <= v < n) or u == v or key in seen:
            raise ValueError(_edge_fault(n, u, v))
        seen.add(key)
    return _build_adjacency(n, edges)


def _build_adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Sorted, symmetric adjacency lists of a list of edges already checked."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for a in nbrs:
        a.sort()
    return tuple(map(tuple, nbrs))


def _bfs(adj, start: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from ``start`` (neighbours in adjacency order) and BFS parents.

    ``parent[v]`` is -1 for ``start`` and for every vertex it does not reach.
    """
    parent = [-1] * len(adj)
    seen = [False] * len(adj)
    seen[start] = True
    order = [start]
    for u in order:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    return order, parent


# Python's default int <-> str digit limit. ``cli.main`` lifts that limit so
# it can print huge |Aut| and a(T); input keeps it, because decoding a long
# decimal string is quadratic in its length.
_MAX_INPUT_DIGITS = 4300


# Error messages quote at most this many characters of an offending line or number.
_ECHO_CHARS = 40


def _cut(x, show=str) -> str:
    text = str(x)
    if len(text) <= _ECHO_CHARS:
        return show(text)
    return f"{show(text[:_ECHO_CHARS])}... (cut, {len(text)} characters)"


def read_edge_lines(text: str):
    """Shared reader for edge-list text: returns (n, [(u, v), ...], [line_no, ...]).

    Validates header, id ranges, self-loops and duplicates with line numbers,
    each edge once. Connectivity and count rules are left to the callers.
    Numbers are ASCII decimals: ``int`` reads any Unicode digits, so a text
    that is not all ASCII has each number checked.
    """
    lines = text.splitlines()
    unicode = not text.isascii()
    i = next((i for i, raw in enumerate(lines) if raw.strip()), None)
    if i is None:
        raise EdgeListParseError("empty input: expected vertex count on first line")
    header = lines[i].strip()
    try:
        if len(header) > _MAX_INPUT_DIGITS or unicode and not header.isascii():
            raise ValueError
        n = int(header)
    except ValueError:
        raise EdgeListParseError(f"expected vertex count, got {_cut(header, repr)}", i + 1) from None
    if n <= 0:
        raise EdgeListParseError("vertex count must be at least 1", i + 1)
    edges, line_nos, seen = [], [], set()
    for line_no, raw in enumerate(lines[i + 1 :], i + 2):
        parts = raw.split()
        if len(parts) != 2:
            if not parts:
                continue
            raise EdgeListParseError(f"expected 'u v', got {_cut(raw.strip(), repr)}", line_no)
        try:
            if len(raw) > _MAX_INPUT_DIGITS and max(map(len, parts)) > _MAX_INPUT_DIGITS:
                raise ValueError  # a line within the limit holds no over-long token
            if unicode and not (parts[0].isascii() and parts[1].isascii()):
                raise ValueError
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer vertex id in {_cut(raw.strip(), repr)}", line_no) from None
        key = (u, v) if u < v else (v, u)
        if not (0 <= u < n and 0 <= v < n) or u == v or key in seen:
            raise EdgeListParseError(_edge_fault(n, u, v), line_no)
        seen.add(key)
        edges.append((u, v))
        line_nos.append(line_no)
    return n, edges, line_nos


def parse_edge_list(text: str) -> Tree:
    """Parse "n" followed by one "u v" edge per line into a validated Tree.

    Tolerates blank lines and CRLF. Errors carry line numbers: duplicate
    edges, out-of-range ids and cycles (reported at the closing edge);
    too few edges are rejected first.
    """
    n, edges, line_nos = read_edge_lines(text)
    # Checked before anything is sized by n, so a huge header fails fast.
    if len(edges) < n - 1:
        raise EdgeListParseError(f"edge count {len(edges)} != n-1 = {n - 1}")
    # Union-find so a cycle is reported at the line that closes it. More than
    # n-1 edges always close one, and n-1 acyclic edges span the vertices.
    parent = list(range(n))
    for line_no, (u, v) in zip(line_nos, edges):
        ru, rv = u, v
        while parent[ru] != ru:
            parent[ru] = ru = parent[parent[ru]]  # path halving
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru == rv:
            raise EdgeListParseError(f"cycle detected at edge ({u}, {v})", line_no)
        parent[ru] = rv
    return Tree(n, _build_adjacency(n, edges))


def serialize_edge_list(t: Tree) -> str:
    """Inverse of parse_edge_list; edges ascending by (min, max). Bit-exact."""
    lines = [str(t.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(t.edges()))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VertexCenter:
    vertex: int


@dataclass(frozen=True)
class EdgeCenter:
    u: int
    v: int


Center = VertexCenter | EdgeCenter


def center(t: Tree) -> Center:
    """Center by iterated leaf removal: a single vertex or an adjacent pair."""
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
    if len(live) == 1:
        return VertexCenter(live[0])
    u, v = live
    return EdgeCenter(u, v)


def _center_ends(c: Center) -> tuple[int, ...]:
    """``(vertex,)`` for a vertex center, ``(u, v)`` for an edge center."""
    return (c.vertex,) if isinstance(c, VertexCenter) else (c.u, c.v)


@dataclass(frozen=True, eq=False)
class RootedTree:
    """Tree with a distinguished root and parent/child orientation.

    ``children`` lists are in ascending id order; canonical ordering is the
    canon module's job. ``bfs_order`` starts at the root, so its reverse is
    a valid bottom-up evaluation order. Equality and hashing are by identity.
    """

    tree: Tree
    root: int
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    subtree_size: tuple[int, ...]
    bfs_order: tuple[int, ...]


def _check_root(n: int, w: int) -> None:
    if not (0 <= w < n):
        raise ValueError(f"root {w} out of range 0..{n - 1}")


def root_at(t: Tree, w: int) -> RootedTree:
    _check_root(t.n, w)
    parent = [None] * t.n
    children = [()] * t.n
    order = [w]
    for u in order:
        kids = t.adj[u]
        if len(kids) == 1 and u != w:  # a leaf
            continue
        j = kids.index(parent[u]) if u != w else len(kids)
        kids = kids[:j] + kids[j + 1 :]  # adj[u] without the parent: ascending, as adj is sorted
        children[u] = kids
        for v in kids:
            parent[v] = u
        order += kids
    size = [1] * t.n
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    return RootedTree(t, w, tuple(parent), tuple(children), tuple(size), tuple(order))


@dataclass(frozen=True)
class Coloring:
    """2-coloring of vertices as a bit mask; bit v set means v is black.

    Masks convert through base-2 digit strings, which are linear in n and
    exempt from Python's int <-> str digit limit.
    """

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("coloring needs at least one vertex")
        if not (0 <= self.mask < (1 << self.n)):
            raise ValueError("mask out of range for vertex count")

    @staticmethod
    def from_bits(bits: str) -> "Coloring":
        if not bits or any(ch not in "01" for ch in bits):
            raise ValueError(f"expected a nonempty 0/1 string, got {_cut(bits, repr)}")
        return Coloring(len(bits), int(bits[::-1], 2))

    @staticmethod
    def from_black(n: int, blacks) -> "Coloring":
        digits = bytearray(b"0" * max(n, 1))
        for v in blacks:
            if not 0 <= v < n:
                raise ValueError("mask out of range for vertex count")
            digits[v] = ord("1")
        return Coloring(n, int(digits[::-1], 2))

    def is_black(self, v: int) -> bool:
        return bool(self.mask >> v & 1)

    def bits(self) -> str:
        return format(self.mask, f"0{self.n}b")[::-1]

    def complement(self) -> "Coloring":
        return Coloring(self.n, self.mask ^ ((1 << self.n) - 1))

    def blacks(self) -> tuple[int, ...]:
        return tuple(v for v, ch in enumerate(self.bits()) if ch == "1")


def relabel(t: Tree, perm) -> Tree:
    """Apply permutation perm (old id -> new id) to the vertex set."""
    edges = [(perm[u], perm[v]) for u, v in t.edges()]
    return Tree.from_edges(t.n, edges)
