import contextlib
import gc
import random
import runpy
import sys
import tracemalloc
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from treesym import Tree, all_trees, kary_tree, random_tree, relabel, spider, tree_from_pruefer
from treesym import trees as trees_module

ROOT = Path(__file__).resolve().parent.parent
# the stdlib scripts, each loaded once: the suite starts treesym through their runners, in process and in a child
golden_digests = runpy.run_path(str(ROOT / "scripts" / "golden_digests.py"))
cli_checks = runpy.run_path(str(ROOT / "scripts" / "cli_checks.py"))
run_cli, run_python = golden_digests["run"], cli_checks["python"]


def traced(run):
    """``(run(), peak)``, with ``peak`` the ``tracemalloc`` peak in bytes while ``run`` runs."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kept(run):
    """``(run(), kept)``, with ``kept`` the bytes still allocated after ``run``, collected before and after."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = run()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def recorded(monkeypatch, *targets) -> list[tuple[str, tuple]]:
    """``(name, args)`` of every call of the targets while patched, in call order; each call returns the real result.

    A target ``(owner, name)`` is patched on that owner alone: a module, or a class whose staticmethod it is.
    A bare function is patched in every ``treesym`` module that binds it under its own name.
    """
    calls: list[tuple[str, tuple]] = []

    def patch(owner, name, real):
        def recording(*args):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(owner, name, staticmethod(recording) if isinstance(owner, type) else recording)

    for target in targets:
        if callable(target):
            for module in [m for key, m in sys.modules.items() if key.partition(".")[0] == "treesym"]:
                if getattr(module, target.__name__, None) is target:
                    patch(module, target.__name__, target)
        else:
            patch(*target, getattr(*target))
    return calls


class Raised(NamedTuple):
    """What a call raised: the type, the message, the attributes (``vars``), the cause's type, what it yielded first."""

    type: type
    message: str
    attrs: tuple = ()
    cause: type | None = None
    yielded: tuple = ()


def outcome(call, *args, catch=ValueError, **kwargs):
    """What ``call(*args, **kwargs)`` returned, an iterator drained into a list, or ``Raised`` if it raised ``catch``.

    Only the ``catch`` types are caught. ``AssertionError`` always propagates: it is an internal failure.
    """
    got = []
    try:
        result = call(*args, **kwargs)
        if not isinstance(result, Iterator):
            return result
        for item in result:
            got.append(item)
        return got
    except AssertionError:
        raise
    except catch as exc:
        cause = None if exc.__cause__ is None else type(exc.__cause__)
        return Raised(type(exc), str(exc), tuple(vars(exc).items()), cause, tuple(got))


@contextlib.contextmanager
def int_digit_limit(digits: int | None = None):
    """Python's int <-> str digit limit set to ``digits`` while the block runs, then restored; 0 lifts it, None keeps it.

    It yields the limit it found: None on Python 3.10.0-3.10.6, which have no limit, and there it sets nothing.
    """
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None and digits is not None:
        sys.set_int_max_str_digits(digits)
    try:
        yield saved
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


@pytest.fixture
def table_builds(monkeypatch) -> list[tuple[str, tuple]]:
    """Every ``_rooting(t, w)`` call, a rooting whose tables are built, while the test runs."""
    return recorded(monkeypatch, (trees_module, "_rooting"))


# named fixtures for the small trees every module's examples use


@pytest.fixture
def k1():
    return Tree.from_edges(1, [])


@pytest.fixture
def k2():
    return Tree.from_edges(2, [(0, 1)])


@pytest.fixture
def p3():
    # center at 0
    return Tree.from_edges(3, [(0, 1), (0, 2)])


@pytest.fixture
def p3_path():
    # path labeling 0-1-2, center at 1
    return Tree.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def p4():
    return Tree.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def p6():
    return Tree.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])


@pytest.fixture
def k13():
    return Tree.from_edges(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def k14():
    return Tree.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.fixture
def asym7():
    # the smallest asymmetric tree
    return Tree.from_edges(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])


def path(n: int) -> Tree:
    return Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Tree:
    return Tree.from_edges(n, [(0, i) for i in range(1, n)])


def relabeled_families(seed: int, sizes) -> list[Tree]:
    """A path, star, 3-leg spider, binary tree and Prüfer tree of each size (at least 4), randomly relabeled."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        out += [relabeled(t, rng) for t in (path(n), star(n), spider(n, 3), kary_tree(n, 2), random_tree(rng, n))]
    return out


def relabeled(t: Tree, rng: random.Random) -> Tree:
    """t with its vertex ids shuffled by ``rng``."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    return relabel(t, perm)


def sample_roots(t: Tree, rng: random.Random) -> set[int]:
    """Both end ids, a vertex of maximum degree and one random vertex."""
    return {0, t.n - 1, max(range(t.n), key=t.degree), rng.randrange(t.n)}


_CORPUS_CACHE: dict[int, list[Tree]] = {}


def trees_up_to(max_n: int) -> list[Tree]:
    out = []
    for n in range(1, max_n + 1):
        if n not in _CORPUS_CACHE:
            _CORPUS_CACHE[n] = list(all_trees(n))
        out.extend(_CORPUS_CACHE[n])
    return out


@st.composite
def random_trees(draw, min_n: int = 1, max_n: int = 10):
    n = draw(st.integers(min_n, max_n))
    if n <= 2:
        return path(n)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return tree_from_pruefer(n, seq)


@st.composite
def trees_with_permutation(draw, min_n: int = 1, max_n: int = 10):
    t = draw(random_trees(min_n, max_n))
    perm = draw(st.permutations(list(range(t.n))))
    return t, list(perm)
