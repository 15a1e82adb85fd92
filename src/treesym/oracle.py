"""Brute-force ground truth: exhaustive colorings, orbit counts, graph automorphisms.

Everything here is deliberately dumb: subsets are enumerated as bit
counters, automorphisms come from plain backtracking, and orbit
representatives are minimum bit patterns. The fast modules are validated
against these results, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne

from .autom import ASYMMETRIC, AutomorphismLimitExceeded, Motion, _automorphisms, enumerate_automorphisms
from .trees import Tree

MAX_ORACLE_VERTICES = 16
MAX_GRAPH_VERTICES = 12  # the cap of _graph_search, so of every graph automorphism search
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


def _moved(sigma) -> int:
    return sum(map(ne, sigma, range(len(sigma))))


def _apply(sigma, mask: int) -> int:
    """The image of the vertex set ``mask`` under the permutation ``sigma`` (bit i goes to bit sigma[i])."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << sigma[low.bit_length() - 1]
        mask ^= low
    return out


def _budgeted_automorphisms(t: Tree, aut_limit: int, pinned: int | None = None):
    """Yield T's automorphisms (fixing ``pinned`` when given); past ``aut_limit`` raise OracleSizeError."""
    try:
        yield from enumerate_automorphisms(t, limit=aut_limit, pinned=pinned)
    except AutomorphismLimitExceeded as exc:
        raise OracleSizeError(str(exc)) from exc


def brute_asym(t: Tree, pinned: int | None = None, aut_limit: int = DEFAULT_AUT_LIMIT) -> OrbitReport:
    """Count distinguishing sets and their orbits by full enumeration.

    A subset is distinguishing iff no non-identity automorphism (fixing
    ``pinned`` when given) maps it to itself; a distinguishing subset is an
    orbit representative iff no automorphism maps it to a smaller bit
    pattern. Automorphisms are scanned in ascending order of moved-vertex
    count so that fixed subsets bail out early on small twin swaps.
    """
    if t.n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"n = {t.n} exceeds oracle cap {MAX_ORACLE_VERTICES}")
    auts = sorted(_budgeted_automorphisms(t, aut_limit, pinned), key=_moved)
    others = auts[1:]  # the identity moves nothing, so it sorts first

    dist_count = 0
    orbit_count = 0
    reps: list[int] = []
    for mask in range(1 << t.n):
        fixed = False
        for sigma in others:
            if _apply(sigma, mask) == mask:
                fixed = True
                break
        if fixed:
            continue
        dist_count += 1
        is_rep = True
        for sigma in others:
            if _apply(sigma, mask) < mask:
                is_rep = False
                break
        if is_rep:
            orbit_count += 1
            reps.append(mask)
    return OrbitReport(
        n=t.n,
        total_colorings=1 << t.n,
        distinguishing_count=dist_count,
        orbit_count=orbit_count,
        aut_order=len(auts),
        orbit_reps=tuple(reps),
    )


def brute_motion(t: Tree, aut_limit: int = DEFAULT_AUT_LIMIT) -> Motion:
    """Minimum moved-vertex count over enumerated non-identity automorphisms."""
    best: int | None = None
    for sigma in _budgeted_automorphisms(t, aut_limit):
        moved = _moved(sigma)
        if moved and (best is None or moved < best):
            best = moved
    return ASYMMETRIC if best is None else Motion(best)


def brute_graph_aut(
    adj,
    pinned: int | None = None,
    limit: int = 500_000,
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
    return _automorphisms(adj, limit=limit, pinned=pinned, forced=forced)
