"""Tree corpora (random, exhaustive, extremal families) and property suites."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .asym import GroupOrderBound, _a_product, a_at_root, a_by_class, asym_of
from .autom import aut_order_of, motion, motion_of
from .canon import TreeAnalysis, _toward_center
from .coloring import OneEndedTruncation, construct_of, one_ended_truncation
from .trees import Tree, _build_adjacency, _cut, serialize_edge_list

ALL_TREES_MAX = 12
LOBED_EXTREMAL_MAX = 26  # lobed_extremal(m) has m/2 * 2^(m/2) + 1 vertices: 106,497 at m = 26

# each family's required CorpusSpec fields; generate() checks them and lists the families in this order
FAMILIES = {"random-prufer": ("n",), "all-trees": ("n",), "kary": ("n", "arity"), "caterpillar": ("n",),
            "lobed-extremal": ("m",), "spider": ("n", "arity")}


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters for one generated family; validated in generate()."""

    family: str
    n: int | None = None
    arity: int | None = None
    m: int | None = None
    count: int | None = None
    seed: int = 0


def tree_from_pruefer(n: int, seq) -> Tree:
    """Decode a Pruefer sequence over 0..n-1 (length n-2) into a labeled tree.

    Linear pointer decoder: ``ptr`` scans upward, once in all, for the next
    unused leaf. A vertex that the current entry turns into a leaf is the
    smallest leaf exactly when it lies below ``ptr``, so it goes next
    without a scan. The edge list is the same as the rescan decoder's, and
    it is a tree by construction, so it is not validated again.
    """
    seq = list(seq)
    if len(seq) != n - 2 + (n == 1) or any(not 0 <= a < n for a in seq):  # K1 has the empty sequence
        raise ValueError("sequence must have length n-2 with entries in 0..n-1")
    if n == 1:
        return Tree(1, _build_adjacency(1, []))
    deg = [1] * n
    for a in seq:
        deg[a] += 1
    ptr = deg.index(1)
    leaf = ptr
    edges = []
    for a in seq:
        edges.append((a, leaf))
        deg[a] -= 1
        if deg[a] == 1 and a < ptr:
            leaf = a
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Tree(n, _build_adjacency(n, edges))


def random_tree(rng: random.Random, n: int) -> Tree:
    if n < 1:
        raise ValueError("n must be at least 1")
    return tree_from_pruefer(n, [rng.randrange(n) for _ in range(n - 2)])


def all_trees(n: int) -> Iterator[Tree]:
    """Every non-isomorphic free tree of order n, exactly once.

    Wright, Richmond, Odlyzko and McKay, "Constant time generation of free
    trees" (SIAM J. Comput. 1986): walk the rooted level sequences in
    Beyer-Hedetniemi order from the path rooted at its center, and jump
    over those that are not the canonical rooting of a free tree.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > ALL_TREES_MAX:
        raise ValueError(f"exhaustive enumeration capped at n = {ALL_TREES_MAX}")
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while seq is not None:
        seq = _free_tree_jump(seq)
        yield Tree(n, _build_adjacency(n, _level_edges(seq)))  # every vertex after 0 has one earlier parent
        seq = _next_level_sequence(seq)


def _next_level_sequence(seq: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi successor of a rooted level sequence, None after the last.

    ``p`` is the position to lower; by default the last one deeper than level 1.
    From ``p`` on, the sequence repeats the block that starts at p's parent q.
    """
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = seq[:p]
    for i in range(p, len(seq)):
        out.append(out[i - p + q])
    return out


def _split(seq: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree (levels shifted up by one) and the tree without it."""
    m = next((i for i in range(2, len(seq)) if seq[i] == 1), len(seq))
    return [x - 1 for x in seq[1:m]], [0] + seq[m:]


def _free_tree_jump(seq: list[int]) -> list[int]:
    """``seq`` if it roots a free tree canonically, else the next sequence that does.

    Canonical: the first subtree is lower than the rest of the tree, or as
    high with no more vertices and, at equal size, not lexicographically later.
    """
    left, rest = _split(seq)
    lh, rh = max(left, default=0), max(rest)  # left is empty only for n = 1
    if rh > lh or (rh == lh and (len(left), left) <= (len(rest), rest)):
        return seq
    p = len(left)
    out = _next_level_sequence(seq, p)
    if seq[p] > 2:
        h = max(_split(out)[0])
        out[-(h + 1) :] = range(1, h + 2)
    return out


def _level_edges(seq: list[int]) -> list[tuple[int, int]]:
    """Edges of a level sequence: vertex i's parent is the last earlier vertex one level up."""
    last = [0] * len(seq)
    edges = []
    for i, level in enumerate(seq):
        if level:
            edges.append((last[level - 1], i))
        last[level] = i
    return edges


def lobed_extremal(m: int) -> Tree:
    """Root with 2^(m/2) hanging paths of order m/2: motion m, max degree 2^(m/2), a = 2."""
    if m < 2 or m % 2 != 0:
        raise ValueError("m must be an even integer >= 2")
    if m > LOBED_EXTREMAL_MAX:
        raise ValueError(f"m = {_cut(m)} exceeds cap {LOBED_EXTREMAL_MAX}")
    half = m // 2
    return spider(1 + half * (1 << half), 1 << half)


def kary_tree(n: int, arity: int) -> Tree:
    """Complete arity-ary tree on n vertices filled in breadth-first order."""
    if arity < 1:
        raise ValueError("arity must be at least 1")
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    return Tree(n, _build_adjacency(n, [(child, (child - 1) // arity) for child in range(1, n)]))


def caterpillar(n: int, rng: random.Random) -> Tree:
    """Random caterpillar: a spine with the remaining vertices as random legs."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n <= 2:
        return tree_from_pruefer(n, [])
    spine_len = rng.randint(2, n)
    edges = [(i, i + 1) for i in range(spine_len - 1)]
    for v in range(spine_len, n):
        edges.append((rng.randrange(spine_len), v))
    return Tree(n, _build_adjacency(n, edges))


def spider(n: int, legs: int) -> Tree:
    """Center vertex with ``legs`` paths of near-equal length, n vertices total."""
    if legs < 1:
        raise ValueError("legs must be at least 1")
    if n < legs + 1:
        raise ValueError("need n >= legs + 1")
    base, extra = divmod(n - 1, legs)
    starts = {1 + i * base + min(i, extra) for i in range(legs)}  # leg i has base + (i < extra) vertices
    return Tree(n, _build_adjacency(n, [(0 if v in starts else v - 1, v) for v in range(1, n)]))


def generate(spec: CorpusSpec) -> Iterator[Tree]:
    """Deterministic stream of trees for one family spec."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {_cut(spec.family, repr)}; expected one of {tuple(FAMILIES)}")
    required = FAMILIES[spec.family]
    if any(getattr(spec, name) is None for name in required):
        raise ValueError(f"{spec.family} requires {' and '.join(required)}")
    if spec.family == "all-trees":
        yield from all_trees(spec.n)
    elif spec.family == "lobed-extremal":
        yield lobed_extremal(spec.m)
    elif spec.family == "kary":
        yield kary_tree(spec.n, spec.arity)
    elif spec.family == "spider":
        yield spider(spec.n, spec.arity)
    else:
        rng = random.Random(spec.seed)
        for _ in range(spec.count if spec.count is not None else 1):
            yield random_tree(rng, spec.n) if spec.family == "random-prufer" else caterpillar(spec.n, rng)


@dataclass(frozen=True)
class TreeRecord:
    """Per-tree facts plus the outcome of each applicable check."""

    n: int
    delta: int
    motion: int | str
    aut_order: int
    a: int
    hypothesis: str  # met | not-met | vacuous-asymmetric
    checks: tuple[tuple[str, str], ...]  # (name, pass|fail|skip)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "motion": self.motion,
            "aut_order": str(self.aut_order),
            "a": str(self.a),
            "hypothesis": self.hypothesis,
            "checks": {name: outcome for name, outcome in self.checks},
        }


@dataclass
class SuiteReport:
    records: list[TreeRecord] = field(default_factory=list)
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def counts(self) -> dict:
        out = {"trees": len(self.records), "hypothesis_met": 0, "checks_passed": 0, "checks_failed": 0}
        for rec in self.records:
            if rec.hypothesis == "met":
                out["hypothesis_met"] += 1
            for _, outcome in rec.checks:
                if outcome == "pass":
                    out["checks_passed"] += 1
                elif outcome == "fail":
                    out["checks_failed"] += 1
        return out

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "records": [r.to_json() for r in self.records],
            "counterexamples": self.counterexamples,
        }

    def summary(self) -> str:
        c = self.counts()
        lines = [
            f"trees analyzed:   {c['trees']}",
            f"hypothesis met:   {c['hypothesis_met']}",
            f"checks passed:    {c['checks_passed']}",
            f"checks failed:    {c['checks_failed']}",
        ]
        for ce in self.counterexamples:
            lines.append(f"COUNTEREXAMPLE [{ce['check']}]: {ce['tree']!r}")
        return "\n".join(lines)


def run_theorem_suite(trees: Iterable[Tree]) -> SuiteReport:
    """Check the degree/motion bounds on every tree in the stream.

    With finite motion m and max degree at most 2^(m/2): the tree must be
    2-distinguishable and the constructed coloring must verify; at each
    center root w with deg(w) < 2^(m/2), a(T,w) >= 2 * 2^(m/2). The group
    bound |Aut| * a <= 2^n applies whenever a > 0. Asymmetric trees pass
    the degree hypothesis vacuously and must achieve a = 2^n. Each tree's
    checks are (name, passed) pairs in order, None for a skipped check;
    every failed one is a counterexample, in the same order.
    """
    report = SuiteReport()
    for t in trees:
        an = TreeAnalysis.at_center(t)
        a_cls = a_by_class(an)
        mot = motion_of(an)
        aut = aut_order_of(an)
        a = asym_of(an, a_cls)
        delta = t.delta  # a max over every adjacency list, so read once
        if mot.is_asymmetric:
            hypothesis, checks = "vacuous-asymmetric", [("asymmetric-a-equals-2^n", a == 1 << t.n)]
        elif delta <= (threshold := 1 << (mot.moved // 2)):
            hypothesis, checks = "met", [("two-distinguishable", a > 0)]
        else:
            hypothesis, checks = "not-met", [("two-distinguishable", None)]
        if hypothesis != "not-met":
            # construct_of raises AssertionError on a coloring that does not verify
            checks.append(("construct-verifies", construct_of(an, a_cls) is not None))
        if hypothesis == "met":
            checks += [("rooted-lower-bound", a_at_root(an, a_cls, w) >= 2 * threshold)
                       for w in an.roots if t.degree(w) < threshold]
        if a > 0:
            checks.append(("group-order-bound", GroupOrderBound.of(t.n, aut, a).holds))
            if aut == 1:
                checks.append(("group-order-bound-equality", aut * a == 1 << t.n))
        outcomes = tuple((name, "skip" if passed is None else "pass" if passed else "fail") for name, passed in checks)
        report.records.append(TreeRecord(t.n, delta, mot.to_json(), aut, a, hypothesis, outcomes))
        report.counterexamples += ({"check": name, "tree": serialize_edge_list(t)} for name, outcome in outcomes
                                   if outcome == "fail")
    return report


@dataclass(frozen=True)
class ConjectureReport:
    """Local twin condition vs global 2-distinguishability for one tree.

    The local condition: a(T,w) > 0 at every vertex w, that is, no twin class
    of branches at w outnumbers its branch's a. It agrees with a(T) > 0
    (``consistent``) on every finite tree: a distinguishing coloring of T
    distinguishes every (T,w), and at a vertex center c a(T) = a(T,c); at an
    edge center uv, a(T,u) is the product of the half values, and a(T) is that
    product or C(h, 2) for isomorphic halves of even value h.
    """

    consistent: bool
    local_ok: bool
    distinguishable: bool
    violation: tuple[int, int, int, int] | None  # (w, x, mu, a_x)

    def to_json(self) -> dict:
        return {
            "consistent": self.consistent,
            "local_condition": self.local_ok,
            "two_distinguishable": self.distinguishable,
            "violation": list(self.violation) if self.violation else None,
        }


def conjecture_check(t: Tree) -> ConjectureReport:
    """Compare the local twin condition, a(T,w) > 0 at every w, with a(T) > 0.

    a(T,w) is w's class value in the center analysis times b(w): the branches
    away from the center are w's runs ``sigs[ids[w]]``, and the branch toward
    the center is alone in its run (see ``canon._at_root``), so it fails only
    when b(w) = 0. The witness is the first violating (w, x), in vertex order,
    then in ``adj[w]`` order. The two sides always agree
    (``ConjectureReport``), so this tests ``canon._toward_center``.

    A class value is read only as zero or nonzero, or as a violation's a_x < mu <= Delta, so
    the class values are built capped at Delta + 1, and b reads each product as nonzero: every run
    is shorter than the cap, so each zero test stays exact, and a and b hold small ints, not n bits.
    """
    an = TreeAnalysis.at_center(t)
    cap = t.delta + 1
    a = []
    for sig in an.sigs:
        a.append(min(_a_product(a, sig), cap))
    b = _toward_center(an, a, lambda vals, runs, k: _a_product(vals, runs, k) > 0)
    ids, sigs, parent, roots = an.ids, an.sigs, an.rt.parent, an.roots
    violation = None
    for w in range(t.n):
        if not (a[ids[w]] and b[w]):  # a(T,w) = 0: a run at w is longer than its class's a
            mu = dict(sigs[ids[w]])
            ks = ((x, 1, b[w]) if x == parent[w] or x in roots else (x, mu[ids[x]], a[ids[x]]) for x in t.adj[w])
            violation = next((w, x, m, a_x) for x, m, a_x in ks if m > a_x)
            break
    local_ok = violation is None
    dist = asym_of(an, a) > 0
    return ConjectureReport(local_ok == dist, local_ok, dist, violation)


def random_one_ended_truncation(
    rng: random.Random, max_ray: int = 20, max_lobe: int = 6
) -> tuple[OneEndedTruncation, tuple[bool, ...]]:
    """A seeded truncation satisfying the motion/degree hypothesis, plus ray colors.

    Designs bias toward motion-4 and motion-6 shapes (twin hanging paths of
    order 2 or 3) interleaved with bare stretches; candidates violating
    max-degree <= 2^(motion/2) are rejected and regenerated, so every
    returned truncation satisfies the hypothesis or is asymmetric.
    """
    for _ in range(500):
        ray_len = rng.randint(4, max_ray)
        chain = rng.choice((2, 2, 3))  # twin path order: motion 4 or 6
        max_fams = (max_lobe - 1) // chain
        edges = [(i, i + 1) for i in range(ray_len - 1)]
        nxt = ray_len
        for i in range(1, ray_len):
            if rng.random() < 0.45:
                continue
            fams = rng.randint(1, max(1, max_fams))
            for _ in range(fams):
                prev = i
                for _ in range(chain):
                    edges.append((prev, nxt))
                    prev = nxt
                    nxt += 1
        t = Tree(nxt, _build_adjacency(nxt, edges))
        mot = motion(t)
        if not mot.is_asymmetric and t.delta > (1 << (mot.moved // 2)):
            continue
        tr = one_ended_truncation(t, tuple(range(ray_len)))
        colors = tuple(rng.random() < 0.5 for _ in range(ray_len))
        return tr, colors
    raise RuntimeError("could not generate a hypothesis-satisfying truncation")
