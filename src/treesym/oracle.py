"""Brute-force ground truth: exhaustive colorings, orbit counts, graph automorphisms.

Everything here is deliberately dumb: subsets are enumerated as bit
counters, automorphisms come from plain backtracking (a run of sibling
leaves takes its images as one permutation of their shared candidates),
and orbit representatives are minimum bit patterns. The fast modules are
validated against these results, never the other way around.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, count
from math import factorial, prod
from operator import itemgetter

from .autom import AutomorphismLimitExceeded, Motion, _automorphisms, enumerate_automorphisms
from .trees import Tree

MAX_ORACLE_VERTICES = 16
MAX_GRAPH_VERTICES = 12  # the cap of _graph_search, so of every graph automorphism search
_GRAPH_AUT_LIMIT = 500_000  # brute_graph_aut's default, and treelike_distinguish's
DEFAULT_AUT_LIMIT = 2_000_000


class OracleSizeError(ValueError):
    """Input exceeds the exhaustive-enumeration budget."""


@dataclass(frozen=True)
class OrbitReport:
    """Exhaustive census of distinguishing sets of one (possibly pinned) tree."""

    n: int
    total_colorings: int
    distinguishing_count: int
    orbit_count: int
    aut_order: int
    orbit_reps: tuple[int, ...]

    def __post_init__(self):
        # Regular action of the group on each orbit of distinguishing sets:
        # this is the claim under test, so it is asserted on every run.
        if self.distinguishing_count != self.orbit_count * self.aut_order:
            raise AssertionError(
                "regular action violated: "
                f"{self.distinguishing_count} != {self.orbit_count} * {self.aut_order}"
            )
        if self.total_colorings != 1 << self.n:
            raise AssertionError("total colorings must be 2^n")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "total_colorings": str(self.total_colorings),
            "distinguishing_count": str(self.distinguishing_count),
            "orbit_count": str(self.orbit_count),
            "aut_order": str(self.aut_order),
        }


def _moved_points(sigma) -> tuple[int, list[tuple[int, int]]]:
    """The support of ``sigma`` as a mask, and each point it moves as a (bit, image bit) pair."""
    pairs = [(1 << i, 1 << y) for i, y in enumerate(sigma) if i != y]
    return sum(bit for bit, _ in pairs), pairs


def _refuse_past(search, adj, pinned, limit):
    """``search``, unless sibling leaves alone make more than ``limit`` automorphisms: then refuse at once.

    The k_v leaves at v other than ``pinned`` permute freely and independently, so |Aut| >= prod k_v!.
    The identity is taken first, so a pin out of range or a disconnected graph still raises its own error.
    """
    leaves = Counter(a[0] for v, a in enumerate(adj) if len(a) == 1 and v != pinned)
    if limit is None or prod(map(factorial, leaves.values())) <= limit:
        return search
    next(search)
    raise AutomorphismLimitExceeded(limit)


def _budgeted_automorphisms(t: Tree, aut_limit: int, pinned: int | None = None):
    """Yield T's automorphisms (fixing ``pinned`` when given); past ``aut_limit`` raise OracleSizeError."""
    try:
        yield from _refuse_past(enumerate_automorphisms(t, limit=aut_limit, pinned=pinned), t.adj, pinned, aut_limit)
    except AutomorphismLimitExceeded as exc:
        raise OracleSizeError(str(exc)) from exc


def brute_asym(t: Tree, pinned: int | None = None, aut_limit: int = DEFAULT_AUT_LIMIT) -> OrbitReport:
    """Count distinguishing sets and their orbits by full enumeration.

    A subset is distinguishing iff no non-identity automorphism (fixing
    ``pinned`` when given) maps it to itself, and then an orbit representative
    iff none maps it to a smaller bit pattern. Automorphisms are scanned in the
    backtracker's order, each through its moved points, built when the scan
    first reaches it: one fixes S, or maps it lower, iff it does so to S's moved
    part. The identity moves nothing, and is dropped by that value.
    """
    if t.n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"n = {t.n} exceeds oracle cap {MAX_ORACLE_VERTICES}")
    tally = count()  # counts every automorphism the search yields, the identity too
    auts = map(itemgetter(0), zip(_budgeted_automorphisms(t, aut_limit, pinned), tally))
    moved: list = []  # the (support, pairs) of each non-identity automorphism the scan has reached
    fresh = (moved.append(m) or m for m in map(_moved_points, auts) if m[0])  # builds and keeps the next one

    dist_count = 0
    reps: list[int] = []
    for mask in range(1 << t.n):
        below = False  # some automorphism maps the mask to a smaller pattern
        for support, pairs in chain(moved, fresh):
            image = 0
            for bit, to in pairs:
                if mask & bit:
                    image |= to
            if image == (part := mask & support):
                break
            below = below or image < part
        else:
            dist_count += 1
            if not below:
                reps.append(mask)
    deque(auts, 0)  # counts, and drops, those the scan never reached; a search past the budget raises here
    return OrbitReport(t.n, 1 << t.n, dist_count, len(reps), next(tally), tuple(reps))


def brute_motion(t: Tree, aut_limit: int = DEFAULT_AUT_LIMIT) -> Motion:
    """Minimum moved-vertex count over enumerated non-identity automorphisms, read through their moved points."""
    return Motion(min((len(pairs) for sup, pairs in map(_moved_points, _budgeted_automorphisms(t, aut_limit)) if sup), default=None))


def brute_graph_aut(
    adj,
    pinned: int | None = None,
    limit: int = _GRAPH_AUT_LIMIT,
    forced: dict[int, int] | None = None,
) -> list[tuple[int, ...]]:
    """All adjacency-preserving permutations of a connected simple graph.

    The degree-pruned backtracking behind ``enumerate_automorphisms``, which
    also checks every mapped neighbor of the current vertex against the
    candidate image. ``forced`` optionally pre-pins images of individual
    vertices.
    """
    return list(_graph_search(adj, pinned, limit, forced))


def exists_automorphism(adj, pinned: int | None = None, forced: dict[int, int] | None = None) -> bool:
    """Feasibility query: is there any automorphism honoring pins and forces?

    Stops the search of brute_graph_aut at the first automorphism found.
    """
    return next(_graph_search(adj, pinned, None, forced), None) is not None


def _graph_search(adj, pinned, limit, forced):
    """The shared automorphism backtracker, behind the oracle's graph cap."""
    if len(adj) > MAX_GRAPH_VERTICES:
        raise OracleSizeError(f"n = {len(adj)} exceeds graph automorphism cap {MAX_GRAPH_VERTICES}")
    search = _automorphisms(adj, limit=limit, pinned=pinned, forced=forced)
    return search if forced else _refuse_past(search, adj, pinned, limit)  # forced images form no group
