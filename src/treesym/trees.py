"""Tree data model: parsing, serialization, centers, rooting, colorings."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice


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

    Adjacency lists are sorted ascending and symmetric; :meth:`from_edges` and ``parse_edge_list``
    validate the structure (connected, acyclic, no self-loops, no duplicate edges). The trees treesym
    makes itself skip the checks, their edges a tree by construction: ``corpus.tree_from_pruefer``,
    ``all_trees``, ``kary_tree``, ``caterpillar``, ``spider``, ``lobed_extremal`` and
    ``random_one_ended_truncation``, and ``treelike``'s forest components.

    A tree is immutable because its center (:func:`center`; a parsed tree arrives with it) and its
    center analysis (:meth:`canon.TreeAnalysis.at_center`) are computed once and kept on the instance,
    shared by every public function called on it. The memos are not fields, so ``==``, ``hash`` and
    ``repr`` do not see them, and pickling or copying a tree leaves them behind.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __getstate__(self):
        return {"n": self.n, "adj": self.adj}

    @staticmethod
    def from_edges(n: int, edges) -> "Tree":
        """A tree on edges from outside treesym, each edge checked; ``ValueError`` if they do not form one."""
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


def _is_decimal(text: str) -> bool:
    """A plain decimal: ASCII, an optional leading ``-``, then digits; ``int`` also reads ``_``, ``+``, any digit."""
    return text.isascii() and text.removeprefix("-").isdigit()


def _cut(x, show=str) -> str:
    """``show(str(x))``, or its first 40 characters and the length when longer; a long int is never converted whole."""
    if isinstance(x, int) and x.bit_length() > 4 * _ECHO_CHARS:  # at least 49 digits: quoted from its leading ones
        sign, a = "-" * (x < 0), abs(x)
        digits = int(a.bit_length() * 0.30102999566398120) - 1  # log10(2): a little below the digit count
        while 10**digits <= a:
            digits += 1
        lead = a // 10 ** (digits - _ECHO_CHARS + len(sign))
        return f"{show(sign + str(lead))}... (cut, {len(sign) + digits} characters)"
    text = str(x)
    if len(text) <= _ECHO_CHARS:
        return show(text)
    return f"{show(text[:_ECHO_CHARS])}... (cut, {len(text)} characters)"


def _header(text: str):
    """The lines of an edge-list text, whether it is plain, the header's index and n: both readers' header rule."""
    lines = text.splitlines()
    i = next((i for i, raw in enumerate(lines) if raw.strip()), None)
    if i is None:
        raise EdgeListParseError("empty input: expected vertex count on first line")
    # int reads only plain decimals (_is_decimal) in an ASCII text without "_" or "+", and only short ones where no
    # line passes the digit limit: only another text has its tokens checked (_ints)
    plain = text.isascii() and "_" not in text and "+" not in text and max(map(len, lines)) <= _MAX_INPUT_DIGITS
    header = lines[i].strip()
    try:
        (n,) = _ints([header], plain)
    except ValueError:
        raise EdgeListParseError(f"expected vertex count, got {_cut(header, repr)}", i + 1) from None
    if n <= 0:
        raise EdgeListParseError("vertex count must be at least 1", i + 1)
    return lines, plain, i, n


def _ints(tokens: list[str], plain: bool) -> list[int]:
    """The numbers of a line's tokens, or ``ValueError``: both readers' token rule."""
    if not plain and not all(len(x) <= _MAX_INPUT_DIGITS and _is_decimal(x) for x in tokens):
        raise ValueError
    return list(map(int, tokens))


def read_edge_lines(text: str):
    """Shared reader for edge-list text: returns (n, [(u, v), ...]), u < v, one per non-blank line after the header.

    Validates header, ids, id ranges, self-loops and duplicates with line
    numbers, each edge once. Connectivity and count rules are left to the
    callers; ``parse_edge_list`` reads only a text it rejects this way.
    """
    lines, plain, i, n = _header(text)
    edges, seen = [], set()
    for line_no, raw in enumerate(lines[i + 1 :], i + 2):
        if not (parts := raw.split()):
            continue
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'u v', got {_cut(raw.strip(), repr)}", line_no)
        try:
            u, v = (int(parts[0]), int(parts[1])) if plain else _ints(parts, False)  # as the accepting pass reads them
        except ValueError:
            raise EdgeListParseError(f"non-integer vertex id in {_cut(raw.strip(), repr)}", line_no) from None
        key = (u, v) if u < v else (v, u)
        if not (0 <= u < n and 0 <= v < n) or u == v or key in seen:
            raise EdgeListParseError(_edge_fault(n, u, v), line_no)
        seen.add(key)
        edges.append(key)
    return n, edges


def _union_find(n: int, edges):
    """Union ``edges`` in order: the index of the first that closes a cycle (or -1), and the class-root ``find``."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving (Tarjan and van Leeuwen, J. ACM 1984)
        return v

    for k, (u, v) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            return k, find
        parent[ru] = rv
    return -1, find


def parse_edge_list(text: str) -> Tree:
    """Parse "n" followed by one "u v" edge per line into a validated Tree, its center kept.

    One pass reads the lines straight into sorted adjacency lists and accepts by ``Tree.from_edges``'
    rule: n - 1 in-range edges that a BFS from 0 spans are a tree, since a self-loop or a duplicate
    would leave at most n - 2 distinct edges, too few to connect n vertices. That BFS is ``center``'s
    first sweep. Tolerates blank lines and CRLF. Only a rejected text is read again, by
    ``read_edge_lines``, to name its fault.
    """
    lines, plain, i, n = _header(text)
    if len(lines) - i - 1 >= n - 1:  # else too few lines for n - 1 edges, seen before anything is sized by n
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for parts in filter(None, map(str.split, lines[i + 1 :])):
            try:
                x, y = parts
                if plain:
                    u, v = int(x), int(y)  # as _ints reads them
                else:
                    u, v = _ints(parts, False)
            except ValueError:
                break
            if not (0 <= u < n and 0 <= v < n):
                break
            nbrs[u].append(v)
            nbrs[v].append(u)
        else:  # every line read
            for k, row in enumerate(nbrs):  # each list gives way to its tuple: never both in full
                row.sort()
                nbrs[k] = tuple(row)
            adj = tuple(nbrs)
            order = _bfs(adj, 0)[0] if sum(map(len, adj)) == 2 * n - 2 else ()  # a BFS only over n - 1 edges
            if len(order) == n:
                return _with_center(Tree(n, adj), order[-1])
    n, edges = read_edge_lines(text)  # raises at the first faulty line
    if len(edges) < n - 1:
        raise EdgeListParseError(f"edge count {len(edges)} != n-1 = {n - 1}")
    # More than n - 1 edges, or n - 1 that leave a vertex unreached, close a cycle: find its line.
    line_no, raw = [(j, r) for j, r in enumerate(text.splitlines(), 1) if r.split()][_union_find(n, edges)[0] + 1]
    u, v = map(int, raw.split())
    raise EdgeListParseError(f"cycle detected at edge ({u}, {v})", line_no)


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
    """The middle vertex, or middle edge, of a longest path: the center lies on every one (Jordan 1869).

    Found on the first call for ``t``, or by ``parse_edge_list``, and kept on ``t`` like its center analysis.
    """
    if "_center" not in t.__dict__:
        _with_center(t, _bfs(t.adj, 0)[0][-1])  # a BFS ends at a farthest vertex, which ends a longest path
    return t.__dict__["_center"]


def _with_center(t: Tree, far: int) -> Tree:
    """``t`` with its center kept, from ``far``, an end of a longest path: a BFS from there ends at the other end."""
    order, parent = _bfs(t.adj, far)
    path = [order[-1]]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    mid = len(path) // 2
    c = VertexCenter(path[mid]) if len(path) % 2 else EdgeCenter(*sorted(path[mid - 1 : mid + 1]))
    object.__setattr__(t, "_center", c)
    return t


def _center_ends(c: Center) -> tuple[int, ...]:
    """``(vertex,)`` for a vertex center, ``(u, v)`` for an edge center."""
    return (c.vertex,) if isinstance(c, VertexCenter) else (c.u, c.v)


@dataclass(frozen=True, eq=False)
class RootedTree:
    """Tree with a distinguished root and parent/child orientation.

    ``parent``, ``children``, ``subtree_size`` and ``bfs_order`` are built by
    one BFS when any of them is first read, then kept as plain attributes.
    ``children`` lists are in ascending id order; canonical ordering is the
    canon module's job. ``bfs_order`` starts at the root, so its reverse is
    a valid bottom-up evaluation order. Equality and hashing are by identity.
    """

    tree: Tree
    root: int

    def __getattr__(self, name: str):
        # only a missing table is built; any other name (``__setstate__`` while unpickling) stays missing
        if name not in ("parent", "children", "subtree_size", "bfs_order"):
            raise AttributeError(name)
        self.__dict__.update(_rooting(self.tree, self.root))
        return self.__dict__[name]


def _check_root(n: int, w: int) -> None:
    if not (0 <= w < n):
        raise ValueError(f"root {_cut(w)} out of range 0..{n - 1}")


def root_at(t: Tree, w: int) -> RootedTree:
    _check_root(t.n, w)
    return RootedTree(t, w)


def _rooting(t: Tree, w: int) -> dict[str, tuple]:
    """The tables of ``t`` rooted at ``w``, by name, from one BFS; ``ValueError`` unless it takes exactly n vertices."""
    parent, children, order = [None] * t.n, [()] * t.n, [w]
    for u in islice(order, t.n):  # a cycle would keep the walk going
        kids = t.adj[u]
        if len(kids) == 1 and u != w:  # a leaf
            continue
        j = kids.index(parent[u]) if u != w else len(kids)
        kids = kids[:j] + kids[j + 1 :]  # adj[u] without the parent: ascending, as adj is sorted
        children[u] = kids
        for v in kids:
            parent[v] = u
        order += kids
    if len(order) != t.n:  # more on a cycle, fewer when disconnected
        raise ValueError("edges do not form a connected tree")
    size = [1] * t.n
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    return dict(parent=tuple(parent), children=tuple(children), subtree_size=tuple(size), bfs_order=tuple(order))


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
        if self.mask < 0 or self.mask >> self.n:  # no 2^n built for the check
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
